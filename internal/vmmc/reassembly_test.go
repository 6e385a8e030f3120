package vmmc

import (
	"math/rand"
	"testing"

	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/stats"
	"sanft/internal/topology"
)

// refKey, refPartial and refEndpoint are the reassembly as it was before
// the per-source records: a map of partial messages keyed by (source,
// message ID) and a map of completion windows keyed by source.
type refKey struct {
	src topology.NodeID
	id  uint64
}

type refPartial struct {
	received int
	first    proto.Stamps
}

type refEndpoint struct {
	ep        *Endpoint // read for the exports only
	partial   map[refKey]*refPartial
	completed map[topology.NodeID]*refWindow
	rejected  uint64
	dups      uint64
	notes     []Notification
}

func (r *refEndpoint) onDeliver(f *proto.Frame) {
	d := f.Data
	if d.BufID < 0 || d.BufID >= len(r.ep.exports) {
		r.rejected++
		return
	}
	e := r.ep.exports[d.BufID]
	if e.allowed != nil && !e.allowed[f.Src] {
		r.rejected++
		return
	}
	if d.BufOffset < 0 || d.BufOffset+len(d.Data) > len(e.Mem) {
		r.rejected++
		return
	}
	cw := r.completed[f.Src]
	if cw == nil {
		cw = &refWindow{sparse: map[uint64]bool{}}
		r.completed[f.Src] = cw
	}
	if cw.done(d.MsgID) {
		r.dups++
		return
	}
	key := refKey{f.Src, d.MsgID}
	pm := r.partial[key]
	if pm == nil {
		if len(d.Data) >= d.MsgLen {
			r.complete(cw, f, f.Stamps)
			return
		}
		pm = &refPartial{}
		r.partial[key] = pm
	}
	if d.MsgOffset == 0 {
		pm.first = f.Stamps
	}
	pm.received += len(d.Data)
	if pm.received < d.MsgLen {
		return
	}
	delete(r.partial, key)
	first := pm.first
	if d.MsgLen == 0 || first.HostStart == 0 {
		first = f.Stamps
	}
	r.complete(cw, f, first)
}

func (r *refEndpoint) complete(cw *refWindow, f *proto.Frame, first proto.Stamps) {
	d := f.Data
	cw.mark(d.MsgID)
	if !d.Notify {
		return
	}
	r.notes = append(r.notes, Notification{
		Src: f.Src, MsgID: d.MsgID, BufID: d.BufID,
		Offset: d.BufOffset - d.MsgOffset, Len: d.MsgLen,
		Latency: f.Stamps.HostRecvDone.Sub(first.HostStart),
		Breakdown: stats.Breakdown{
			HostSend: first.HostDone.Sub(first.HostStart),
			NICSend:  first.Injected.Sub(first.HostDone),
			Wire:     first.Delivered.Sub(first.Injected),
			NICRecv:  first.NICRecvDone.Sub(first.Delivered),
			HostRecv: first.HostRecvDone.Sub(first.NICRecvDone),
		},
	})
}

// partials counts the messages an endpoint is reassembling.
func (ep *Endpoint) partials() int {
	n := 0
	for _, s := range ep.sources {
		if s != nil {
			n += len(s.partial)
		}
	}
	return n
}

// TestReassemblyMatchesMapReference feeds 400 random chunk scripts to an
// endpoint and to the map version kept above. Each script interleaves the
// chunks of several messages from each of three sources in random order,
// and redelivers random chunks already delivered, as a generation reset
// does; some chunks are rejected deposits, some messages are empty, some
// first chunks carry no host-start stamp. After every chunk the two must
// agree on rejected deposits, duplicate notifications, messages in
// progress and notifications posted, and at the end on every
// notification's contents, in order.
func TestReassemblyMatchesMapReference(t *testing.T) {
	const chunk = 16
	for seed := int64(1); seed <= 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := newRig(t, 4, true, 0)
		dst := r.hosts[0]
		ep := r.eps[dst]
		open := ep.Export("open", 64*chunk)
		closed := ep.Export("closed", 64*chunk, r.hosts[1])
		ref := &refEndpoint{ep: ep, partial: map[refKey]*refPartial{}, completed: map[topology.NodeID]*refWindow{}}

		// Build every source's messages and their chunks, then shuffle the
		// lot: chunks of one message, and of several messages from one
		// source, arrive in any order.
		var script []*proto.Frame
		stamp := sim.Time(1000)
		for _, src := range r.hosts[1:] {
			for id := uint64(1); id <= uint64(2+rng.Intn(5)); id++ {
				n := rng.Intn(5) // chunks; 0 is an empty message
				size := n*chunk - rng.Intn(chunk)
				if n == 0 {
					size = 0
				}
				buf := open
				if rng.Intn(5) == 0 {
					buf = closed // rejected for every source but hosts[1]
				}
				off := rng.Intn(40) * chunk
				if rng.Intn(20) == 0 {
					off = len(buf.Mem) // out of range: rejected
				}
				notify := rng.Intn(4) != 0
				for c := 0; c == 0 || c*chunk < size; c++ {
					end := min((c+1)*chunk, size)
					f := proto.NewData(dst, proto.DataPayload{
						BufID: buf.ID, MsgID: id, MsgLen: size,
						BufOffset: off + c*chunk, MsgOffset: c * chunk,
						Data: make([]byte, end-c*chunk), Notify: notify,
					})
					f.Src = src
					stamp += sim.Time(1 + rng.Intn(50))
					if rng.Intn(6) != 0 {
						f.Stamps.HostStart = stamp
					}
					f.Stamps.HostDone = stamp + 10
					f.Stamps.Injected = stamp + 20
					f.Stamps.Delivered = stamp + 30
					f.Stamps.NICRecvDone = stamp + 40
					f.Stamps.HostRecvDone = stamp + 50 + sim.Time(rng.Intn(100))
					script = append(script, f)
				}
			}
		}
		rng.Shuffle(len(script), func(i, j int) { script[i], script[j] = script[j], script[i] })

		var delivered []*proto.Frame
		step := func(f *proto.Frame) {
			ep.onDeliver(f)
			ref.onDeliver(f)
			delivered = append(delivered, f)
			if ep.RejectedDeposits != ref.rejected || ep.DupNotifications != ref.dups ||
				ep.partials() != len(ref.partial) || open.Notify.Len()+closed.Notify.Len() != len(ref.notes) {
				t.Fatalf("seed %d, chunk %d of message %d from %d: rejected %d, dups %d, partial %d, notes %d; reference %d, %d, %d, %d",
					seed, f.Data.MsgOffset/chunk, f.Data.MsgID, f.Src,
					ep.RejectedDeposits, ep.DupNotifications, ep.partials(), open.Notify.Len()+closed.Notify.Len(),
					ref.rejected, ref.dups, len(ref.partial), len(ref.notes))
			}
		}
		for _, f := range script {
			step(f)
			if rng.Intn(8) == 0 {
				// A generation reset redelivers some chunks already seen.
				for k := rng.Intn(4); k > 0; k-- {
					step(delivered[rng.Intn(len(delivered))])
				}
			}
		}

		var got []Notification
		r.k.Spawn("drain", func(p *sim.Proc) {
			for _, e := range []*Export{open, closed} {
				for e.Notify.Len() > 0 {
					got = append(got, e.WaitNotification(p))
				}
			}
		})
		r.k.RunFor(0)
		r.k.Stop()
		var want []Notification
		for _, e := range []*Export{open, closed} {
			for _, n := range ref.notes {
				if n.BufID == e.ID {
					want = append(want, n)
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d notifications, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("seed %d: notification %d is %+v, reference %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestReassembly64KAllocs: the chunks of a message in progress are
// tracked in its source's record, as values, so reassembling a 64 KB
// message of 16 chunks allocates nothing once the record exists.
// (Before: a partial-message record per message, kept in a map keyed by
// source and message ID, and a map lookup per chunk.)
func TestReassembly64KAllocs(t *testing.T) {
	r := newRig(t, 2, true, 0)
	a, b := r.hosts[0], r.hosts[1]
	ep := r.eps[b]
	mtu := ep.NIC().Cost().MTU
	const size = 64 << 10
	exp := ep.Export("inbox", size)
	chunks := make([]*proto.Frame, 0, size/mtu)
	for off := 0; off < size; off += mtu {
		f := proto.NewData(b, proto.DataPayload{
			BufID: exp.ID, MsgLen: size, BufOffset: off, MsgOffset: off,
			Data: make([]byte, mtu),
		})
		f.Src = a
		f.Stamps.HostStart = 1
		chunks = append(chunks, f)
	}
	id := uint64(0)
	message := func() {
		id++
		for _, f := range chunks {
			f.Data.MsgID = id
			ep.onDeliver(f)
		}
	}
	for i := 0; i < 4; i++ {
		message()
	}
	avg := testing.AllocsPerRun(1000, message)
	if avg != 0 {
		t.Fatalf("reassembling a 64 KB message allocates %.2f times, want 0", avg)
	}
	if src := ep.sources[a]; len(src.partial) != 0 || !src.done.done(id) || ep.DupNotifications != 0 {
		t.Fatalf("after %d messages: %d in progress, done(%d)=%v, %d dups", id, len(src.partial), id, src.done.done(id), ep.DupNotifications)
	}
}
