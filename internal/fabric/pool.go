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
}

// packetPool holds the released blocks, shared by every wire and cell.
var packetPool sim.FreeList[packetBlock]

// getBlock takes a block from the pool, or allocates one.
func getBlock() *packetBlock {
	if b := packetPool.Get(); b != nil {
		return b
	}
	return new(packetBlock)
}

// NewPacket returns p in pooled storage: the sending NIC builds every
// packet it injects this way. Whoever holds the packet at its last use
// releases it — the receiving NIC once its receive firmware is done, and
// a Pipe after the send DMA of a packet it handed to its egress hook. A
// packet the fabric drops is never released, because its drop callbacks
// may still hold it; the garbage collector takes it.
func NewPacket(p Packet) *Packet {
	b := getBlock()
	b.pkt = p
	b.pkt.blk = b
	return &b.pkt
}

// ClonePooled returns a copy of the packet shell from pooled storage:
// route bytes are copied into the block's reusable buffer and callbacks
// are stripped (OnInjectDone already fired on the source shard, and the
// wire gives no cross-host drop feedback — which is why the
// retransmission protocol exists). Payload is carried over as-is; the
// caller deep-copies it when the boundary demands. The caller owns the
// copy until it calls Release.
func (p *Packet) ClonePooled() *Packet {
	b := getBlock()
	cp := &b.pkt
	*cp = *p
	cp.blk = b
	b.routeBuf = append(b.routeBuf[:0], p.Route...)
	cp.Route = b.routeBuf
	cp.OnInjectDone = nil
	cp.OnDropped = nil
	return cp
}

// Release returns a pooled packet's storage (NewPacket, ClonePooled) to
// the pool, clearing every pointer in it: the payload, the route and the
// callbacks. Every packet a NIC sends is pooled, in sequential runs too,
// so the receive path's release recycles it; packets built as literals
// (blk nil) and value copies of a pooled packet are no-ops. The packet
// must not be used after Release; its Payload is not released (see
// packetBlock).
func (p *Packet) Release() {
	b := p.blk
	if b == nil || &b.pkt != p {
		return
	}
	rb := b.routeBuf
	*b = packetBlock{routeBuf: rb[:0]}
	packetPool.Put(b)
}
