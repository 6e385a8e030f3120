package vmmc

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/nic"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
)

type rig struct {
	k     *sim.Kernel
	fab   *fabric.Fabric
	hosts []topology.NodeID
	eps   map[topology.NodeID]*Endpoint
	dir   *Directory
}

func newRig(t *testing.T, nHosts int, ft bool, dropRate float64) *rig {
	t.Helper()
	k := sim.New(1)
	nw, hosts := topology.Star(nHosts)
	fab := fabric.New(k, nw, fabric.DefaultConfig())
	dir := NewDirectory()
	r := &rig{k: k, fab: fab, hosts: hosts, eps: make(map[topology.NodeID]*Endpoint), dir: dir}
	for i, h := range hosts {
		var dropper fault.Dropper
		if i == 0 && dropRate > 0 {
			dropper = fault.NewRate(dropRate)
		}
		n := nic.New(k, fab, h, nic.Options{
			FT:      ft,
			Retrans: retrans.Config{QueueSize: 32, Interval: time.Millisecond},
			Dropper: dropper,
		})
		r.eps[h] = NewEndpoint(k, n, dir)
	}
	for _, a := range hosts {
		for _, b := range hosts {
			if a != b {
				rt, _ := routing.Shortest(nw, a, b)
				r.eps[a].NIC().SetRoute(b, rt)
			}
		}
	}
	return r
}

func (r *rig) runFor(d time.Duration) {
	r.k.RunFor(d)
	r.k.Stop()
}

func TestExportImportSend(t *testing.T) {
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	exp := r.eps[b].Export("inbox", 4096)
	var note Notification
	got := false
	r.k.Spawn("sender", func(p *sim.Proc) {
		imp, err := r.eps[a].Import(b, "inbox")
		if err != nil {
			t.Error(err)
			return
		}
		imp.Send(p, 100, []byte("hello vmmc"), true)
	})
	r.k.Spawn("receiver", func(p *sim.Proc) {
		note = exp.WaitNotification(p)
		got = true
	})
	r.runFor(10 * time.Millisecond)
	if !got {
		t.Fatal("no notification")
	}
	if note.Len != 10 || note.Offset != 100 || note.Src != a {
		t.Fatalf("notification = %+v", note)
	}
	if string(exp.Mem[100:110]) != "hello vmmc" {
		t.Fatalf("memory = %q", exp.Mem[100:110])
	}
}

func TestImportPermissionDenied(t *testing.T) {
	r := newRig(t, 3, true, 0)
	a, b, c := r.hosts[0], r.hosts[1], r.hosts[2]
	r.eps[b].Export("private", 1024, a) // only a may import
	if _, err := r.eps[a].Import(b, "private"); err != nil {
		t.Fatalf("allowed importer rejected: %v", err)
	}
	if _, err := r.eps[c].Import(b, "private"); err == nil {
		t.Fatal("disallowed importer accepted")
	}
	if _, err := r.eps[a].Import(b, "nonexistent"); err == nil {
		t.Fatal("import of missing buffer accepted")
	}
}

func TestSegmentationAndReassembly(t *testing.T) {
	// 20 KB message → 5 chunks; must reassemble exactly.
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	exp := r.eps[b].Export("big", 32*1024)
	msg := make([]byte, 20*1024)
	for i := range msg {
		msg[i] = byte(i * 31)
	}
	notes := 0
	r.k.Spawn("sender", func(p *sim.Proc) {
		imp, _ := r.eps[a].Import(b, "big")
		imp.Send(p, 1000, msg, true)
	})
	r.k.Spawn("receiver", func(p *sim.Proc) {
		n := exp.WaitNotification(p)
		notes++
		if n.Len != len(msg) || n.Offset != 1000 {
			t.Errorf("notification = %+v", n)
		}
	})
	r.runFor(50 * time.Millisecond)
	if notes != 1 {
		t.Fatalf("notifications = %d, want 1", notes)
	}
	if !bytes.Equal(exp.Mem[1000:1000+len(msg)], msg) {
		t.Fatal("reassembled message differs")
	}
}

func TestMessageCompletionUnderDrops(t *testing.T) {
	// 10% send-side drops; every message must still complete exactly
	// once, in order.
	r := newRig(t, 2, true, 0.1)
	a, b := r.hosts[0], r.hosts[1]
	exp := r.eps[b].Export("inbox", 64*1024)
	const n = 40
	var order []uint64
	r.k.Spawn("sender", func(p *sim.Proc) {
		imp, _ := r.eps[a].Import(b, "inbox")
		for i := 0; i < n; i++ {
			msg := bytes.Repeat([]byte{byte(i)}, 6000) // 2 chunks
			imp.Send(p, 0, msg, true)
		}
	})
	r.k.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			note := exp.WaitNotification(p)
			order = append(order, note.MsgID)
		}
	})
	r.runFor(2 * time.Second)
	if len(order) != n {
		t.Fatalf("completed %d of %d messages", len(order), n)
	}
	for i := 1; i < len(order); i++ {
		if order[i] <= order[i-1] {
			t.Fatalf("completions out of order: %v", order)
		}
	}
}

func TestZeroLengthMessageNotifies(t *testing.T) {
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	exp := r.eps[b].Export("sig", 64)
	got := false
	r.k.Spawn("sender", func(p *sim.Proc) {
		imp, _ := r.eps[a].Import(b, "sig")
		imp.Send(p, 0, nil, true)
	})
	r.k.Spawn("receiver", func(p *sim.Proc) {
		n := exp.WaitNotification(p)
		got = n.Len == 0
	})
	r.runFor(10 * time.Millisecond)
	if !got {
		t.Fatal("zero-length message did not notify")
	}
}

func TestDepositOutsideBufferPanics(t *testing.T) {
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	r.eps[b].Export("small", 16)
	panicked := false
	r.k.Spawn("sender", func(p *sim.Proc) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		imp, _ := r.eps[a].Import(b, "small")
		imp.Send(p, 8, make([]byte, 16), false)
	})
	r.runFor(time.Millisecond)
	if !panicked {
		t.Fatal("overflow deposit did not panic at the send side")
	}
}

func TestDepositPermissionEnforcedAtReceiver(t *testing.T) {
	// A forged frame naming a protected buffer must be rejected at the
	// receiving endpoint even if it arrives.
	r := newRig(t, 3, true, 0)
	a, b, c := r.hosts[0], r.hosts[1], r.hosts[2]
	exp := r.eps[b].Export("private", 64, a) // only a
	// c forges a deposit by sending a raw data frame naming the buffer.
	r.k.Spawn("forger", func(p *sim.Proc) {
		r.eps[c].NIC().Send(p, &proto.Frame{
			Type: proto.FrameData,
			Dst:  b,
			Data: &proto.DataPayload{BufID: exp.ID, MsgID: 1, MsgLen: 8, Data: bytes.Repeat([]byte{0xff}, 8)},
		})
	})
	r.runFor(10 * time.Millisecond)
	if r.eps[b].RejectedDeposits != 1 {
		t.Fatalf("rejected deposits = %d, want 1", r.eps[b].RejectedDeposits)
	}
	for _, bb := range exp.Mem {
		if bb != 0 {
			t.Fatal("protected memory was written")
		}
	}
}

func TestNotificationLatencyBreakdown(t *testing.T) {
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	exp := r.eps[b].Export("inbox", 64)
	var note Notification
	r.k.Spawn("sender", func(p *sim.Proc) {
		imp, _ := r.eps[a].Import(b, "inbox")
		imp.Send(p, 0, make([]byte, 4), true)
	})
	r.k.Spawn("receiver", func(p *sim.Proc) {
		note = exp.WaitNotification(p)
	})
	r.runFor(10 * time.Millisecond)
	bd := note.Breakdown
	if bd.Total() != note.Latency {
		t.Fatalf("breakdown total %v != latency %v for single-chunk message", bd.Total(), note.Latency)
	}
	for name, d := range map[string]time.Duration{
		"host-send": bd.HostSend, "nic-send": bd.NICSend, "wire": bd.Wire,
		"nic-recv": bd.NICRecv, "host-recv": bd.HostRecv,
	} {
		if d <= 0 {
			t.Fatalf("stage %s = %v, want positive", name, d)
		}
	}
	// FT 4-byte message: ~10µs per the paper.
	if note.Latency < 9*time.Microsecond || note.Latency > 11*time.Microsecond {
		t.Fatalf("latency = %v, want ≈10µs", note.Latency)
	}
}

func TestCompletionWindowProperty(t *testing.T) {
	// Marking IDs in any order: done() is true exactly for marked IDs,
	// and memory stays bounded by the largest gap.
	f := func(perm []uint8) bool {
		cw := &completionWindow{sparse: make(map[uint64]bool)}
		marked := make(map[uint64]bool)
		for _, p := range perm {
			id := uint64(p%64) + 1
			cw.mark(id)
			marked[id] = true
		}
		for id := uint64(1); id <= 64; id++ {
			if cw.done(id) != marked[id] {
				return false
			}
		}
		return len(cw.sparse) <= 64
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionWindowFoldsDense(t *testing.T) {
	cw := &completionWindow{sparse: make(map[uint64]bool)}
	// Mark 2..1000, then 1: everything folds into upTo, sparse empties.
	for id := uint64(2); id <= 1000; id++ {
		cw.mark(id)
	}
	if len(cw.sparse) != 999 {
		t.Fatalf("sparse = %d before fold", len(cw.sparse))
	}
	cw.mark(1)
	if cw.upTo != 1000 || len(cw.sparse) != 0 {
		t.Fatalf("after fold: upTo=%d sparse=%d", cw.upTo, len(cw.sparse))
	}
}

// TestRepeatedSendBufferUnderDrops sends one non-zero buffer again and
// again under injected drops, as the micro-benchmarks send one zero
// buffer. Data frames, and their go-back-N clones, point into the buffer
// until they are acknowledged, so sharing it is safe only because no layer
// writes a send buffer: every deposit must carry the buffer's bytes, and
// the buffer must be unchanged afterwards.
func TestRepeatedSendBufferUnderDrops(t *testing.T) {
	r := newRig(t, 2, true, 0.1)
	a, b := r.hosts[0], r.hosts[1]
	ep := r.eps[b]
	exp := ep.Export("inbox", 16*1024)
	buf := make([]byte, 10000) // three chunks
	for i := range buf {
		buf[i] = byte(7*i + 1)
	}
	orig := append([]byte(nil), buf...)
	deposits := 0
	ep.NIC().SetOnDeliver(func(f *proto.Frame) {
		d := f.Data
		if !bytes.Equal(d.Data, orig[d.MsgOffset:d.MsgOffset+len(d.Data)]) {
			t.Errorf("deposit of message %d at offset %d differs from the send buffer", d.MsgID, d.MsgOffset)
		}
		deposits++
		ep.onDeliver(f)
	})
	const n = 30
	r.k.Spawn("sender", func(p *sim.Proc) {
		imp, _ := r.eps[a].Import(b, "inbox")
		for i := 0; i < n; i++ {
			imp.Send(p, 0, buf, true)
		}
	})
	completed := 0
	r.k.Spawn("receiver", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			note := exp.WaitNotification(p)
			if !bytes.Equal(exp.Mem[note.Offset:note.Offset+note.Len], orig) {
				t.Errorf("message %d landed with other bytes than the send buffer's", note.MsgID)
			}
			completed++
		}
	})
	r.runFor(2 * time.Second)
	if completed != n || deposits < 3*n {
		t.Fatalf("completed %d of %d messages with %d deposits, want all and at least %d", completed, n, deposits, 3*n)
	}
	if got := r.eps[a].NIC().Counters().Get("pkts-retransmitted"); got == 0 {
		t.Fatal("no retransmissions: the drops never exercised the go-back-N clones")
	}
	if !bytes.Equal(buf, orig) {
		t.Fatal("the send buffer was written")
	}
}

// TestSingleChunkDeliverAllocs: a message of one chunk completes without
// a partial-message record, so depositing it and marking it complete
// allocates nothing when it asks for no notification. (Before: 1 alloc
// per message, the partial record.)
func TestSingleChunkDeliverAllocs(t *testing.T) {
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	ep := r.eps[b]
	exp := ep.Export("inbox", 64)
	f := proto.NewData(b, proto.DataPayload{BufID: exp.ID, MsgLen: 4, Data: []byte{1, 2, 3, 4}})
	f.Src = a
	id := uint64(0)
	deliver := func() {
		id++
		f.Data.MsgID = id
		f.Data.BufOffset = int(id % 16)
		ep.onDeliver(f)
	}
	for i := 0; i < 64; i++ {
		deliver()
	}
	avg := testing.AllocsPerRun(10000, deliver)
	if avg != 0 {
		t.Fatalf("a single-chunk deposit allocates %.2f allocs/op, want 0", avg)
	}
	src := ep.sources[a]
	if ep.DupNotifications != 0 || ep.RejectedDeposits != 0 || len(src.partial) != 0 || !src.done.done(id) {
		t.Fatalf("dups %d, rejected %d, partial %d, done(%d)=%v; want 0, 0, 0, true",
			ep.DupNotifications, ep.RejectedDeposits, len(src.partial), id, src.done.done(id))
	}
}

// refWindow is the completion window as it was before its in-order fast
// path: every mark goes through an eagerly made sparse map.
type refWindow struct {
	upTo   uint64
	sparse map[uint64]bool
}

func (c *refWindow) done(id uint64) bool { return id <= c.upTo || c.sparse[id] }

func (c *refWindow) mark(id uint64) {
	if id <= c.upTo {
		return
	}
	c.sparse[id] = true
	for c.sparse[c.upTo+1] {
		delete(c.sparse, c.upTo+1)
		c.upTo++
	}
}

// TestCompletionWindowDenseMatchesMapReference marks random completion
// orders — in-order runs, gaps filled late, duplicates, IDs far ahead —
// and requires done, the folded horizon and the sparse set to agree,
// after every mark, with the map-only reference: the window's in-order
// fast path and its lazily made sparse set must be invisible.
func TestCompletionWindowDenseMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cw := &completionWindow{}
		ref := &refWindow{sparse: map[uint64]bool{}}
		next := uint64(1)
		for step := 0; step < 200; step++ {
			var id uint64
			switch k := rng.Intn(10); {
			case k < 5: // in order
				id = next
				next++
			case k < 7: // a duplicate or an old ID
				id = 1 + uint64(rng.Int63n(int64(next)))
			case k < 9: // a gap, filled later
				id = next + 1 + uint64(rng.Intn(8))
			default: // far ahead
				id = next + 100 + uint64(rng.Intn(1000))
			}
			cw.mark(id)
			ref.mark(id)
			if cw.upTo != ref.upTo || len(cw.sparse) != len(ref.sparse) {
				t.Fatalf("seed %d step %d: after marking %d, upTo %d with %d sparse, want %d with %d",
					seed, step, id, cw.upTo, len(cw.sparse), ref.upTo, len(ref.sparse))
			}
			for q := uint64(0); q <= next+1200; q += 1 + uint64(rng.Intn(8)) {
				if cw.done(q) != ref.done(q) {
					t.Fatalf("seed %d step %d: done(%d) = %v, want %v", seed, step, q, cw.done(q), ref.done(q))
				}
			}
		}
	}
}

// TestCompletionWindowInOrderAllocs: completing messages in order only
// advances the horizon — no sparse set is made and nothing allocates.
func TestCompletionWindowInOrderAllocs(t *testing.T) {
	cw := &completionWindow{}
	id := uint64(0)
	avg := testing.AllocsPerRun(10000, func() {
		id++
		if cw.done(id) {
			t.Fatalf("message %d done before it completed", id)
		}
		cw.mark(id)
	})
	if avg != 0 {
		t.Fatalf("in-order completion allocates %.2f allocs/op, want 0", avg)
	}
	if cw.sparse != nil || cw.upTo != id {
		t.Fatalf("after %d in-order completions: upTo %d, sparse made %v", id, cw.upTo, cw.sparse != nil)
	}
}
