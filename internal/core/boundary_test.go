package core

import (
	"testing"

	"sanft/internal/fabric"
	"sanft/internal/proto"
	"sanft/internal/routing"
	"sanft/internal/sim"
)

// TestBoundaryCloneReleasesAck: the shard-boundary hook deep-copies a
// packet and its frame, and lets go of the original packet's hold on the
// frame. An explicit ack's original has no other holder, so it goes back
// to its cell's frame list at once; a data frame the sender's entry still
// holds stays as it is until the entry lets go too.
func TestBoundaryCloneReleasesAck(t *testing.T) {
	k := sim.New(1)
	pkts, frames := fabric.PacketsOf(k), proto.FramesOf(k)
	ack := frames.NewAck(2, 1, 7)
	ack.Src = 1
	pkt := pkts.New(fabric.Packet{Route: routing.Route{0}, Src: 1, Dst: 2, Size: proto.AckFrameBytes, Payload: ack})
	cp := clonePacket(pkts, frames, pkt)
	got := cp.Payload.(*proto.Frame)
	if got == ack || got.Type != proto.FrameAck || got.Src != 1 || got.Dst != 2 || got.AckGen != 1 || got.AckSeq != 7 {
		t.Fatalf("ack clone %+v", got)
	}
	if ack.HasAck || ack.Type != proto.FrameData || ack.AckSeq != 0 {
		t.Fatal("the original ack frame was not released once cloned")
	}

	data := frames.NewData(2, proto.DataPayload{MsgID: 3, MsgLen: 4, Data: []byte{1, 2, 3, 4}})
	data.Src = 1
	data.Hold() // the sender's entry
	pkt = pkts.New(fabric.Packet{Route: routing.Route{0}, Src: 1, Dst: 2, Size: data.WireSize(), Payload: data})
	cp = clonePacket(pkts, frames, pkt)
	if got := cp.Payload.(*proto.Frame); got == data || got.Data.MsgID != 3 {
		t.Fatalf("data clone %+v", got)
	}
	if data.Type != proto.FrameData || data.Data == nil || data.Data.MsgID != 3 || data.Src != 1 {
		t.Fatal("the original data frame was released while its entry holds it")
	}
	frames.Release(data) // the entry lets go
	if data.Data != nil || data.Src != 0 {
		t.Fatal("the original data frame was not released once its entry let go")
	}
}
