package proto

import (
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// frameBlock is one unit of pooled frame storage: the frame itself plus
// inline payload structs and reusable byte/route buffers, allocated as a
// single block so a data frame, an explicit ack or a shard-boundary clone
// touches the allocator zero times in steady state.
type frameBlock struct {
	f    Frame
	data DataPayload
	live LivenessPayload
	buf  []byte                    // backing for data.Data of a clone, capacity kept across reuse
	rbuf []int                     // backing for ControlRoute, likewise
	home *sim.FreeList[frameBlock] // the list the block was drawn from
	// holds counts the holders that have not let go yet (Hold, Release);
	// the block goes home when it reaches 0.
	holds int32
}

// frameLists holds each cell's frame free list, and the one of code with
// no cell.
var frameLists sim.Lists[frameBlock]

// Frames is one cell's frame free list: the cell's senders draw their
// data frames from it, its NICs their explicit acks and go-back-N
// copies, and its shard-boundary hook the frame copies it hands to
// another cell. A block counts its holders and goes back when the last
// one lets go, always to the list it came from: released on its own cell
// it is a plain push, with no lock; released on another cell (a boundary
// copy, by the destination NIC) it goes onto the home list's locked
// return stack. The zero Frames is not usable; FramesOf returns one.
type Frames struct{ l *sim.FreeList[frameBlock] }

// FramesOf returns the frame list of kernel k's cell, or, for a nil k,
// the list of code with no cell, which locks on every call. Look it up
// once, when the NIC, endpoint or boundary hook is built.
func FramesOf(k *sim.Kernel) Frames { return Frames{frameLists.Of(k)} }

// get draws a block from the list, or allocates one, with one hold.
func (fs Frames) get() *frameBlock {
	b := fs.l.Get()
	b.home = fs.l
	b.holds = 1
	return b
}

// NewData returns a data frame to dst carrying d in pooled storage, with
// one hold: the send path's, which the NIC passes on to the packet that
// carries the frame, or lets go of if the frame never reaches one. The
// NIC takes a second hold for the frame's retransmission entry. The frame
// points at d.Data, the caller's buffer, which no layer writes.
func (fs Frames) NewData(dst topology.NodeID, d DataPayload) *Frame {
	b := fs.get()
	b.data = d
	f := &b.f
	f.Type, f.Dst, f.Data = FrameData, dst, &b.data
	f.blk = b
	return f
}

// Resend returns a copy of data frame f in pooled storage, for the
// go-back-N engine and a generation reset to send again, with one hold:
// the send path's, as NewData. The copy has its own header and its own
// DataPayload and shares only the caller's bytes, so it points into no
// other block and outlives f's block if it must.
func (fs Frames) Resend(f *Frame) *Frame {
	b := fs.get()
	c := &b.f
	*c = *f
	c.blk = b
	b.data = *f.Data
	c.Data = &b.data
	return c
}

// NewAck returns an explicit cumulative ack frame to dst in pooled
// storage, with one hold. The receiving NIC releases it once it has
// processed the ack (or dropped it on a CRC error); the shard-boundary
// hook releases the original once it has cloned it. An ack the fabric
// drops is left to the garbage collector.
func (fs Frames) NewAck(dst topology.NodeID, gen uint32, seq uint64) *Frame {
	b := fs.get()
	f := &b.f
	f.Type, f.Dst, f.HasAck, f.AckGen, f.AckSeq = FrameAck, dst, true, gen, seq
	f.blk = b
	return f
}

// Clone returns a deep copy of f equivalent to f.Clone(), but drawing
// storage from the list, with one hold, when the frame's receive-side
// lifetime is bounded — data, ack, and liveness frames, which the
// receiving NIC fully consumes and then releases. Probe-family and
// route-update frames hand interior references onward (a probe's
// ReturnRoute becomes the reply's ControlRoute; a route update's route is
// installed into the routing table), so they fall back to a plain Clone
// and Release is a no-op on them.
//
// The caller owns the copy until it is released; the original is
// untouched either way.
func (fs Frames) Clone(f *Frame) *Frame {
	switch f.Type {
	case FrameData, FrameAck, FrameLiveness:
	default:
		return f.Clone()
	}
	b := fs.get()
	c := &b.f
	*c = *f
	c.blk = b
	if f.Data != nil {
		b.data = *f.Data
		b.buf = append(b.buf[:0], f.Data.Data...)
		b.data.Data = b.buf
		c.Data = &b.data
	}
	if f.Live != nil {
		b.live = *f.Live
		c.Live = &b.live
	}
	if f.Probe != nil {
		// Not reachable for the pooled types today; deep-copy defensively
		// so a future frame shape cannot alias through the pool.
		p := *f.Probe
		p.ReturnRoute = f.Probe.ReturnRoute.Clone()
		c.Probe = &p
	}
	if f.ControlRoute != nil {
		b.rbuf = append(b.rbuf[:0], f.ControlRoute...)
		c.ControlRoute = b.rbuf
	}
	return c
}

// Hold adds a holder to a pooled frame, who lets go with Release. Like
// Release it is a no-op on ordinary frames and on value copies of a
// pooled frame. Holders run on the frame's cell, one event at a time, so
// the count takes no lock; only its last Release may come from another
// cell.
func (f *Frame) Hold() {
	if b := f.blk; b != nil && &b.f == f {
		b.holds++
	}
}

// Release lets go of one hold of a pooled frame, from an event of fs's
// cell. The last one returns the frame's storage to the list it came
// from: a plain push when that list is fs, the home list's return stack
// otherwise, with every pointer in the block cleared, the one to the
// caller's payload bytes included. Only the exact pooled frame has holds:
// ordinary frames (blk nil) and value copies of a pooled frame (whose
// address differs from the block's interior frame) are no-ops, so a
// stray Release can never free storage that is still owned. The caller
// must not use the frame after Release.
func (fs Frames) Release(f *Frame) {
	if b := f.letGo(); b != nil {
		if b.home == fs.l {
			fs.l.Put(b)
		} else {
			b.home.Return(b)
		}
	}
}

// Made returns how many blocks the list has allocated (sim.FreeList.Made).
func (fs Frames) Made() int { return fs.l.Made() }

// letGo drops one hold of f's pooled block. When that was the last it
// clears the block for reuse, in place, and returns it, with its buffers
// and home kept; otherwise, and when f is not the frame of a pooled
// block, it returns nil.
func (f *Frame) letGo() *frameBlock {
	b := f.blk
	if b == nil || &b.f != f {
		return nil
	}
	if b.holds--; b.holds > 0 {
		return nil
	}
	buf, rbuf, home := b.buf[:0], b.rbuf[:0], b.home
	*b = frameBlock{}
	b.buf, b.rbuf, b.home = buf, rbuf, home
	return b
}

// ClonePooled returns a deep copy of the frame from the list of code with
// no cell (see Frames.Clone); the shard-boundary hook draws from its
// cell's list instead.
func (f *Frame) ClonePooled() *Frame { return FramesOf(nil).Clone(f) }

// Release lets go of one hold of a pooled frame (Frames, ClonePooled) on
// any goroutine, provided the frame's holders take turns as Hold says;
// the last one returns its storage to the list it came from through that
// list's lock (see Frames.Release for what it clears and when it is a
// no-op). The caller must not use the frame after Release.
func (f *Frame) Release() {
	if b := f.letGo(); b != nil {
		b.home.Return(b)
	}
}
