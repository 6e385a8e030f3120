package proto

import (
	"sanft/internal/sim"
	"sanft/internal/topology"
)

// frameBlock is one unit of pooled frame storage: the frame itself plus
// inline payload structs and reusable byte/route buffers, allocated as a
// single block so an explicit ack or a shard-boundary clone touches the
// allocator zero times in steady state.
type frameBlock struct {
	f    Frame
	data DataPayload
	live LivenessPayload
	buf  []byte                    // backing for data.Data, capacity kept across reuse
	rbuf []int                     // backing for ControlRoute, likewise
	home *sim.FreeList[frameBlock] // the list the block was drawn from
}

// frameLists holds each cell's frame free list, and the one of code with
// no cell.
var frameLists sim.Lists[frameBlock]

// Frames is one cell's frame free list: the cell's NICs draw their
// explicit acks from it, and its shard-boundary hook the frame copies it
// hands to another cell. A block always goes back to the list it came
// from: released on its own cell it is a plain push, with no lock;
// released on another cell (a boundary copy, by the destination NIC) it
// goes onto the home list's locked return stack. The zero Frames is not
// usable; FramesOf returns one.
type Frames struct{ l *sim.FreeList[frameBlock] }

// FramesOf returns the frame list of kernel k's cell, or, for a nil k,
// the list of code with no cell, which locks on every call. Look it up
// once, when the NIC or boundary hook is built.
func FramesOf(k *sim.Kernel) Frames { return Frames{frameLists.Of(k)} }

// get draws a block from the list, or allocates one.
func (fs Frames) get() *frameBlock {
	b := fs.l.Get()
	b.home = fs.l
	return b
}

// NewAck returns an explicit cumulative ack frame to dst in pooled
// storage. The receiving NIC releases it once it has processed the ack
// (or dropped it on a CRC error); the shard-boundary hook releases the
// original once it has cloned it. An ack the fabric drops is left to the
// garbage collector.
func (fs Frames) NewAck(dst topology.NodeID, gen uint32, seq uint64) *Frame {
	b := fs.get()
	f := &b.f
	f.Type, f.Dst, f.HasAck, f.AckGen, f.AckSeq = FrameAck, dst, true, gen, seq
	f.blk = b
	return f
}

// Clone returns a deep copy of f equivalent to f.Clone(), but drawing
// storage from the list when the frame's receive-side lifetime is bounded
// — data, ack, and liveness frames, which the receiving NIC fully
// consumes and then releases. Probe-family and route-update frames hand
// interior references onward (a probe's ReturnRoute becomes the reply's
// ControlRoute; a route update's route is installed into the routing
// table), so they fall back to a plain Clone and Release is a no-op on
// them.
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

// Release returns a pooled frame's storage to the list it came from,
// from an event of fs's cell: a plain push when that list is fs, the home
// list's return stack otherwise. It clears every pointer in the block.
// Only the exact pooled frame releases its block: ordinary frames (blk
// nil) and value copies of a pooled frame (whose address differs from the
// block's interior frame) are no-ops, so a stray Release can never free
// storage that is still owned. Explicit acks are pooled in sequential
// runs too, so the receive path's release recycles them; data frames stay
// the sender's originals there (NewData), and releasing one does nothing.
// The frame must not be used after Release.
func (fs Frames) Release(f *Frame) {
	if b := f.reset(); b != nil {
		if b.home == fs.l {
			fs.l.Put(b)
		} else {
			b.home.Return(b)
		}
	}
}

// Made returns how many blocks the list has allocated (sim.FreeList.Made).
func (fs Frames) Made() int { return fs.l.Made() }

// reset clears the pooled block of f for reuse and returns it, with its
// buffers and home kept; nil when f is not the frame of a pooled block.
func (f *Frame) reset() *frameBlock {
	b := f.blk
	if b == nil || &b.f != f {
		return nil
	}
	*b = frameBlock{buf: b.buf[:0], rbuf: b.rbuf[:0], home: b.home}
	return b
}

// ClonePooled returns a deep copy of the frame from the list of code with
// no cell (see Frames.Clone); the shard-boundary hook draws from its
// cell's list instead.
func (f *Frame) ClonePooled() *Frame { return FramesOf(nil).Clone(f) }

// Release returns a pooled frame's storage (Frames, ClonePooled) to the
// list it came from, from any goroutine, through that list's lock
// (see Frames.Release for what it clears and when it is a no-op). The
// frame must not be used after Release.
func (f *Frame) Release() {
	if b := f.reset(); b != nil {
		b.home.Return(b)
	}
}
