package proto

import (
	"bytes"
	"testing"

	"sanft/internal/routing"
	"sanft/internal/sim"
)

func poolTestFrame(payload int) *Frame {
	return &Frame{
		Type: FrameData,
		Src:  1, Dst: 2,
		Gen: 3, Seq: 7,
		HasAck: true, AckGen: 3, AckSeq: 6,
		Data: &DataPayload{
			MsgID:  9,
			MsgLen: payload,
			Data:   bytes.Repeat([]byte{0xAB}, payload),
			Notify: true,
		},
	}
}

// TestClonePooledMatchesClone: the pooled clone must be observably
// identical to a plain deep clone, and independent of the original.
func TestClonePooledMatchesClone(t *testing.T) {
	f := poolTestFrame(512)
	f.ControlRoute = routing.Route{1, 2, 3}
	c := f.ClonePooled()
	if c.Type != f.Type || c.Src != f.Src || c.Dst != f.Dst || c.Gen != f.Gen || c.Seq != f.Seq {
		t.Fatal("pooled clone header differs from original")
	}
	if c.Data == f.Data || !bytes.Equal(c.Data.Data, f.Data.Data) {
		t.Fatal("pooled clone must deep-copy payload bytes")
	}
	if &c.ControlRoute[0] == &f.ControlRoute[0] {
		t.Fatal("pooled clone must not alias the control route")
	}
	f.Data.Data[0] = 0xCD
	if c.Data.Data[0] != 0xAB {
		t.Fatal("mutating the original leaked into the pooled clone")
	}
	c.Release()
}

// TestClonePooledProbeFallback: probe-family frames hand interior
// references onward, so ClonePooled must fall back to a plain clone on
// which Release is a no-op.
func TestClonePooledProbeFallback(t *testing.T) {
	f := &Frame{Type: FrameHostProbe, Probe: &ProbePayload{ProbeID: 4, ReturnRoute: routing.Route{1}}}
	c := f.ClonePooled()
	if c.blk != nil {
		t.Fatal("probe frame must not draw pooled storage")
	}
	c.Release() // must be a no-op
	if c.Probe.ProbeID != 4 {
		t.Fatal("probe payload lost")
	}
}

// TestReleaseOwnershipGuard: releasing a value copy of a pooled frame, or
// an ordinary frame, must never return storage to the pool.
func TestReleaseOwnershipGuard(t *testing.T) {
	c := poolTestFrame(16).ClonePooled()
	cp := *c // value copy: blk points at the block, but &blk.f != &cp
	cp.Release()
	if c.Data == nil || c.Data.Data[0] != 0xAB {
		t.Fatal("releasing a value copy freed the owner's storage")
	}
	c.Release()
	plain := poolTestFrame(16)
	plain.Release() // blk nil: no-op
	if plain.Data.Data[0] != 0xAB {
		t.Fatal("releasing an ordinary frame corrupted it")
	}
}

// TestBoundaryCloneAllocs pins the shard-boundary hot path: after pool
// warmup, ClonePooled+Release of a data frame must not allocate. This is
// the allocation the parallel engine pays per cross-shard packet, and it
// was the profile's top site before pooling.
func TestBoundaryCloneAllocs(t *testing.T) {
	f := poolTestFrame(1024)
	f.ClonePooled().Release() // warm the pool (and its byte buffer)
	avg := testing.AllocsPerRun(10000, func() {
		f.ClonePooled().Release()
	})
	if avg != 0 {
		t.Fatalf("boundary clone allocates %.2f allocs/op in steady state, want 0", avg)
	}
}

// BenchmarkBoundaryClonePooled vs BenchmarkBoundaryClonePlain: the
// before/after of the shard-boundary clone (1 KB data frame).
func BenchmarkBoundaryClonePooled(b *testing.B) {
	f := poolTestFrame(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ClonePooled().Release()
	}
}

func BenchmarkBoundaryClonePlain(b *testing.B) {
	f := poolTestFrame(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Clone()
	}
}

// TestNewAckAllocs: an explicit ack frame comes from a frame list with
// only its ack fields set, and once released and taken again allocates
// nothing, on the list of code with no cell and on a cell's own list
// alike; the released block keeps no pointer.
func TestNewAckAllocs(t *testing.T) {
	f := FramesOf(nil).NewAck(4, 2, 9)
	if f.Type != FrameAck || f.Dst != 4 || !f.HasAck || f.AckGen != 2 || f.AckSeq != 9 ||
		f.Data != nil || f.ControlRoute != nil || f.Src != 0 || f.Seq != 0 {
		t.Fatalf("NewAck built %+v", f)
	}
	f.ControlRoute = routing.Route{1}
	b := f.blk
	f.Release()
	if b.f.ControlRoute != nil || b.f.blk != nil {
		t.Fatal("a released ack frame keeps its pointers")
	}
	avg := testing.AllocsPerRun(10000, func() { FramesOf(nil).NewAck(1, 0, 1).Release() })
	if avg != 0 {
		t.Fatalf("NewAck+Release allocates %.2f allocs/op once warm, want 0", avg)
	}
	fs := FramesOf(sim.New(1))
	fs.Release(fs.NewAck(1, 0, 1))
	if avg := testing.AllocsPerRun(10000, func() { fs.Release(fs.NewAck(1, 0, 1)) }); avg != 0 {
		t.Fatalf("NewAck+Release on a cell's list allocates %.2f allocs/op once warm, want 0", avg)
	}
}

// TestNewDataAllocs: a data frame comes from a frame list with one hold,
// each Hold adds one, and the block goes home only when the last holder
// lets go, cleared, the caller's payload bytes included. A copy to resend
// (Resend) is a block of its own, with its own payload record, that shares
// only the caller's bytes, so it outlives its original's block. A value
// copy of a pooled frame holds nothing. Drawing, holding and letting go
// allocate nothing once warm, on a cell's list and on the list of code
// with no cell.
func TestNewDataAllocs(t *testing.T) {
	fs := FramesOf(sim.New(1))
	payload := []byte{1, 2, 3}
	f := fs.NewData(4, DataPayload{MsgID: 9, MsgLen: len(payload), Data: payload, Notify: true})
	if f.Type != FrameData || f.Dst != 4 || f.Data == nil || f.Data.MsgID != 9 || !f.Data.Notify || &f.Data.Data[0] != &payload[0] {
		t.Fatalf("NewData built %+v", f)
	}
	f.Hold() // a second holder, as the retransmission entry
	c := fs.Resend(f)
	if c == f || c.Data == f.Data || c.Data.MsgID != 9 || &c.Data.Data[0] != &payload[0] {
		t.Fatal("a resent copy must have its own frame and payload record and share only the bytes")
	}
	v := *f
	v.Hold()
	fs.Release(&v) // a value copy holds nothing and frees nothing
	fs.Release(f)
	if f.Data == nil || f.Data.MsgID != 9 {
		t.Fatal("a data frame went home while a holder was left")
	}
	b := f.blk
	fs.Release(f)
	if b.f.Data != nil || b.data.Data != nil || b.f.blk != nil || b.holds != 0 {
		t.Fatal("a data frame's block keeps its frame, its payload or its holds once the last holder let go")
	}
	if c.Data.MsgID != 9 || c.Data.Data[2] != 3 {
		t.Fatal("a resent copy changed when its original went home")
	}
	fs.Release(c)
	d := DataPayload{MsgID: 1, MsgLen: len(payload), Data: payload}
	cycle := func(fs Frames) func() {
		return func() {
			f := fs.NewData(2, d)
			f.Hold()
			fs.Release(fs.Resend(f))
			fs.Release(f)
			fs.Release(f)
		}
	}
	for _, fs := range []Frames{fs, FramesOf(nil)} {
		cycle(fs)()
		if avg := testing.AllocsPerRun(10000, cycle(fs)); avg != 0 {
			t.Fatalf("a data frame's draw, copy, holds and releases allocate %.2f times once warm, want 0", avg)
		}
	}
}

// BenchmarkDataFrameHold is a data frame's life on a cell's list: drawn
// (NewData), held by a second holder, and let go of by both.
func BenchmarkDataFrameHold(b *testing.B) {
	fs := FramesOf(sim.New(1))
	d := DataPayload{MsgID: 1, MsgLen: 64, Data: make([]byte, 64)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := fs.NewData(2, d)
		f.Hold()
		fs.Release(f)
		fs.Release(f)
	}
}
