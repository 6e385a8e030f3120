package chaos

import (
	"fmt"
	"time"

	"sanft/internal/sim"
	"sanft/internal/topology"
)

// Pair is one directed traffic flow.
type Pair struct {
	Src, Dst topology.NodeID
}

// AllPairs returns every directed pair over hosts.
func AllPairs(hosts []topology.NodeID) []Pair {
	var out []Pair
	for _, s := range hosts {
		for _, d := range hosts {
			if s != d {
				out = append(out, Pair{s, d})
			}
		}
	}
	return out
}

// Workload drives traffic through a chaos run: Msgs messages of Bytes
// each, per pair, with Gap between sends (plus a per-source stagger so
// flows do not march in lockstep).
type Workload struct {
	Pairs []Pair
	Msgs  int           // default 6
	Bytes int           // default 512
	Gap   time.Duration // default 200µs

	// OnNotify, if set, observes every notification as it arrives (in
	// event context), in delivery order per pair. External checkers — the
	// proptest ordering oracle, for one — need the sequence, which Counts
	// alone cannot reconstruct.
	OnNotify func(Pair, uint64)
}

// Run is a started workload's observation state. Receivers record every
// notification; CheckInvariants consumes the counts afterwards.
type Run struct {
	W Workload
	// Counts maps each pair to notification counts per message ID — the
	// raw material for the delivery and dedup invariants.
	Counts map[Pair]map[uint64]int

	// Sent, when non-nil, is the per-pair set of injected message IDs —
	// the expectation side of the delivery invariant for external traffic
	// sources, which (unlike the built-in workload) do not send a fixed
	// Msgs per pair. Populate through NoteSent.
	Sent map[Pair]map[uint64]bool

	lastDelivery map[Pair]sim.Time
}

// NewExternalRun returns an empty Run with send-side accounting enabled,
// for traffic sources implemented outside this package: record every
// Import.Send with NoteSent and every notification with NoteDelivered,
// and CheckInvariants audits the external traffic exactly as it does the
// built-in workload's.
func (e *Engine) NewExternalRun() *Run {
	return &Run{
		Counts:       make(map[Pair]map[uint64]int),
		Sent:         make(map[Pair]map[uint64]bool),
		lastDelivery: make(map[Pair]sim.Time),
	}
}

// NoteSent records one injected message (the ID returned by Import.Send)
// on the directed pair.
func (r *Run) NoteSent(pr Pair, id uint64) {
	m := r.Sent[pr]
	if m == nil {
		m = make(map[uint64]bool)
		r.Sent[pr] = m
	}
	m[id] = true
}

// NoteDelivered records one completion notification on the directed pair
// and feeds the engine's delivery-stall (MTTR) histogram, mirroring what
// the built-in workload's receivers do.
func (e *Engine) NoteDelivered(r *Run, pr Pair, id uint64) {
	m := r.Counts[pr]
	if m == nil {
		m = make(map[uint64]int)
		r.Counts[pr] = m
	}
	m[id]++
	now := e.C.Now()
	if last, ok := r.lastDelivery[pr]; ok {
		e.observeGap(now.Sub(last))
	}
	r.lastDelivery[pr] = now
}

// Start exports a buffer per pair, spawns the receive and send processes,
// and returns the observation state. Call before the cluster runs.
func (w Workload) Start(e *Engine) *Run {
	if w.Msgs == 0 {
		w.Msgs = 6
	}
	if w.Bytes == 0 {
		w.Bytes = 512
	}
	if w.Gap == 0 {
		w.Gap = 200 * time.Microsecond
	}
	// A delivery gap at the workload's own pace is not a stall: keep the
	// stall floor above twice the send gap so MTTR records only
	// fault-induced delays.
	if e.StallFloor < 2*w.Gap {
		e.StallFloor = 2 * w.Gap
	}
	r := &Run{
		W:            w,
		Counts:       make(map[Pair]map[uint64]int),
		lastDelivery: make(map[Pair]sim.Time),
	}
	for i, pr := range w.Pairs {
		pr := pr
		name := fmt.Sprintf("chaos-%d", pr.Src)
		exp := e.C.Endpoint(pr.Dst).Export(name, w.Bytes*4)
		r.Counts[pr] = make(map[uint64]int)
		e.C.K.Spawn(fmt.Sprintf("chaos-recv-%d-%d", pr.Src, pr.Dst), func(p *sim.Proc) {
			for {
				n := exp.WaitNotification(p)
				r.Counts[pr][n.MsgID]++
				if w.OnNotify != nil {
					w.OnNotify(pr, n.MsgID)
				}
				if last, ok := r.lastDelivery[pr]; ok {
					e.observeGap(p.Now().Sub(last))
				}
				r.lastDelivery[pr] = p.Now()
			}
		})
		stagger := time.Duration(i%7) * 37 * time.Microsecond
		e.C.K.Spawn(fmt.Sprintf("chaos-send-%d-%d", pr.Src, pr.Dst), func(p *sim.Proc) {
			p.Sleep(stagger)
			imp, err := e.C.Endpoint(pr.Src).Import(pr.Dst, name)
			if err != nil {
				panic(fmt.Sprintf("chaos: import %d->%d: %v", pr.Src, pr.Dst, err))
			}
			for m := 0; m < w.Msgs; m++ {
				imp.Send(p, 0, make([]byte, w.Bytes), true)
				p.Sleep(w.Gap)
			}
		})
	}
	return r
}

// Expected returns the number of messages the workload injects in total:
// the send-side accounting when enabled, else the fixed pair × msg grid.
func (r *Run) Expected() int {
	if r.Sent != nil {
		n := 0
		for _, ids := range r.Sent {
			n += len(ids)
		}
		return n
	}
	return len(r.W.Pairs) * r.W.Msgs
}

// NumPairs returns the number of directed pairs the run drove traffic on.
func (r *Run) NumPairs() int {
	if r.Sent != nil {
		return len(r.Sent)
	}
	return len(r.W.Pairs)
}

// Delivered returns the number of distinct messages that produced at
// least one notification.
func (r *Run) Delivered() int {
	n := 0
	for _, ids := range r.Counts {
		n += len(ids)
	}
	return n
}

// Duplicates returns the number of extra notifications beyond the first
// per message — nonzero means the exactly-once notification contract
// broke.
func (r *Run) Duplicates() int {
	n := 0
	for _, ids := range r.Counts {
		for _, c := range ids {
			if c > 1 {
				n += c - 1
			}
		}
	}
	return n
}
