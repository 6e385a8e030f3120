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
	buf  []byte // backing for data.Data, capacity kept across reuse
	rbuf []int  // backing for ControlRoute, likewise
}

// framePool holds the released blocks, shared by every NIC and cell.
var framePool sim.FreeList[frameBlock]

// getBlock takes a block from the pool, or allocates one.
func getBlock() *frameBlock {
	if b := framePool.Get(); b != nil {
		return b
	}
	return new(frameBlock)
}

// NewAck returns an explicit cumulative ack frame to dst in pooled
// storage. The receiving NIC releases it once it has processed the ack
// (or dropped it on a CRC error); the shard-boundary hook releases the
// original once it has cloned it. An ack the fabric drops is left to the
// garbage collector.
func NewAck(dst topology.NodeID, gen uint32, seq uint64) *Frame {
	b := getBlock()
	f := &b.f
	f.Type, f.Dst, f.HasAck, f.AckGen, f.AckSeq = FrameAck, dst, true, gen, seq
	f.blk = b
	return f
}

// ClonePooled returns a deep copy of the frame equivalent to Clone, but
// drawing storage from a package pool when the frame's receive-side
// lifetime is bounded — data, ack, and liveness frames, which the
// receiving NIC fully consumes and then releases. Probe-family and
// route-update frames hand interior references onward (a probe's
// ReturnRoute becomes the reply's ControlRoute; a route update's route
// is installed into the routing table), so they fall back to a plain
// Clone and Release is a no-op on them.
//
// The caller owns the copy until it calls Release; the original is
// untouched either way.
func (f *Frame) ClonePooled() *Frame {
	switch f.Type {
	case FrameData, FrameAck, FrameLiveness:
	default:
		return f.Clone()
	}
	b := getBlock()
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

// Release returns a pooled frame's storage (NewAck, ClonePooled) to the
// pool, clearing every pointer in it. Only the exact pooled frame
// releases its block: ordinary frames (blk nil) and value copies of a
// pooled frame (whose address differs from the block's interior frame)
// are no-ops, so a stray Release can never free storage that is still
// owned. Explicit acks are pooled in sequential runs too, so the receive
// path's release recycles them; data frames stay the sender's originals
// there (NewData), and releasing one does nothing. The frame must not be
// used after Release.
func (f *Frame) Release() {
	b := f.blk
	if b == nil || &b.f != f {
		return
	}
	buf, rbuf := b.buf, b.rbuf
	*b = frameBlock{buf: buf[:0], rbuf: rbuf[:0]}
	framePool.Put(b)
}
