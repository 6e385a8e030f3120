package fabric

import "sanft/internal/sim"

// packetBlock is one unit of pooled packet storage: the packet plus a
// reusable route buffer, so sending a packet, or cloning one across a
// shard boundary, allocates nothing in steady state. The payload is not
// part of the block — protocol layers pool their frames separately (the
// fabric never looks inside Payload) and the two lifetimes differ: the
// packet dies when receive firmware finishes, the frame when the host has
// consumed it.
type packetBlock struct {
	pkt      Packet
	routeBuf []int
	home     *sim.FreeList[packetBlock] // the list the block was drawn from
}

// packetLists holds each cell's packet free list, and the one of code
// with no cell.
var packetLists sim.Lists[packetBlock]

// Packets is one cell's packet free list: the cell's NICs draw the
// packets they send from it, and its Pipe draws the copies it hands
// across a shard boundary. A block always goes back to the list it came
// from: released on its own cell it is a plain push, with no lock;
// released on another cell (a boundary copy, by the destination NIC) it
// goes onto the home list's locked return stack. The zero Packets is not
// usable; PacketsOf returns one.
type Packets struct{ l *sim.FreeList[packetBlock] }

// PacketsOf returns the packet list of kernel k's cell, or, for a nil k,
// the list of code with no cell, which locks on every call. Look it up
// once, when the NIC or wire is built.
func PacketsOf(k *sim.Kernel) Packets { return Packets{packetLists.Of(k)} }

// get draws a block from the list, or allocates one.
func (ps Packets) get() *packetBlock {
	b := ps.l.Get()
	b.home = ps.l
	return b
}

// New returns p in pooled storage: the sending NIC builds every packet it
// injects this way. Whoever holds the packet at its last use releases it
// — the receiving NIC once its receive firmware is done, and a Pipe after
// the send DMA of a packet it handed to its egress hook. A packet the
// fabric drops is never released, because its drop callbacks may still
// hold it; the garbage collector takes it.
func (ps Packets) New(p Packet) *Packet {
	b := ps.get()
	b.pkt = p
	b.pkt.blk = b
	return &b.pkt
}

// Clone returns a copy of the packet shell p from pooled storage: route
// bytes are copied into the block's reusable buffer and callbacks are
// stripped (OnInjectDone already fired on the source shard, and the wire
// gives no cross-host drop feedback — which is why the retransmission
// protocol exists). Payload is carried over as-is; the caller deep-copies
// it when the boundary demands. The caller owns the copy until it is
// released.
func (ps Packets) Clone(p *Packet) *Packet {
	b := ps.get()
	cp := &b.pkt
	*cp = *p
	cp.blk = b
	b.routeBuf = append(b.routeBuf[:0], p.Route...)
	cp.Route = b.routeBuf
	cp.OnInjectDone = nil
	cp.OnDropped = nil
	return cp
}

// Release returns a pooled packet's storage to the list it came from,
// from an event of ps's cell: a plain push when that list is ps, the home
// list's return stack otherwise. It clears every pointer in the block:
// the payload, the route and the callbacks. Packets built as literals
// (blk nil) and value copies of a pooled packet are no-ops. The packet
// must not be used after Release; its Payload is not released (see
// packetBlock).
func (ps Packets) Release(p *Packet) {
	if b := p.reset(); b != nil {
		if b.home == ps.l {
			ps.l.Put(b)
		} else {
			b.home.Return(b)
		}
	}
}

// Made returns how many blocks the list has allocated (sim.FreeList.Made).
func (ps Packets) Made() int { return ps.l.Made() }

// reset clears the pooled block of p for reuse and returns it, with its
// home kept; nil when p is not the packet of a pooled block.
func (p *Packet) reset() *packetBlock {
	b := p.blk
	if b == nil || &b.pkt != p {
		return nil
	}
	*b = packetBlock{routeBuf: b.routeBuf[:0], home: b.home}
	return b
}

// ClonePooled returns a copy of the packet shell from the list of code
// with no cell (see Packets.Clone); the shard-boundary hook draws from
// its cell's list instead.
func (p *Packet) ClonePooled() *Packet { return PacketsOf(nil).Clone(p) }

// Release returns a pooled packet's storage (Packets, ClonePooled) to the
// list it came from, from any goroutine, through that list's lock (see
// Packets.Release for what it clears). Packets built as literals and
// value copies of a pooled packet are no-ops. The packet must not be used
// after Release.
func (p *Packet) Release() {
	if b := p.reset(); b != nil {
		b.home.Return(b)
	}
}
