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
	// proptest ordering oracle, for one — need the sequence, which the
	// per-message counts alone cannot reconstruct.
	OnNotify func(Pair, uint64)
}

// Run is a started workload's observation state: one delivery log per
// directed pair, in which receivers record every notification and, for
// external traffic sources, senders every injected message.
// CheckInvariants consumes the logs afterwards.
type Run struct {
	W Workload

	logs map[Pair]*pairLog
	// external says the expectation side of the delivery invariant is
	// the send-side accounting of NoteSent: external traffic sources,
	// unlike the built-in workload, do not send a fixed Msgs per pair.
	external bool
}

// NewExternalRun returns an empty Run with send-side accounting enabled,
// for traffic sources implemented outside this package: record every
// Import.Send with NoteSent and every notification with NoteDelivered,
// and CheckInvariants audits the external traffic exactly as it does the
// built-in workload's.
func (e *Engine) NewExternalRun() *Run {
	return &Run{logs: make(map[Pair]*pairLog), external: true}
}

// log returns pr's delivery log, creating it on first use.
func (r *Run) log(pr Pair) *pairLog {
	l := r.logs[pr]
	if l == nil {
		l = &pairLog{}
		r.logs[pr] = l
	}
	return l
}

// NoteSent records one injected message (the ID returned by Import.Send)
// on the directed pair.
func (r *Run) NoteSent(pr Pair, id uint64) { r.log(pr).noteSent(id) }

// NoteDelivered records one completion notification on the directed pair
// and feeds the engine's delivery-stall (MTTR) histogram, mirroring what
// the built-in workload's receivers do.
func (e *Engine) NoteDelivered(r *Run, pr Pair, id uint64) {
	l := r.log(pr)
	l.noteDelivered(id)
	e.noteGap(l, e.C.Now())
}

// noteGap feeds the gap since the pair's previous notification into the
// delivery-stall histogram and stamps now as the pair's last delivery.
func (e *Engine) noteGap(l *pairLog, now sim.Time) {
	if l.delivering {
		e.observeGap(now.Sub(l.last))
	}
	l.last, l.delivering = now, true
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
	r := &Run{W: w, logs: make(map[Pair]*pairLog, len(w.Pairs))}
	for i, pr := range w.Pairs {
		pr := pr
		name := fmt.Sprintf("chaos-%d", pr.Src)
		exp := e.C.Endpoint(pr.Dst).Export(name, w.Bytes*4)
		l := r.log(pr)
		e.C.K.Spawn(fmt.Sprintf("chaos-recv-%d-%d", pr.Src, pr.Dst), func(p *sim.Proc) {
			for {
				n := exp.WaitNotification(p)
				l.noteDelivered(n.MsgID)
				if w.OnNotify != nil {
					w.OnNotify(pr, n.MsgID)
				}
				e.noteGap(l, p.Now())
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
	if r.external {
		n := 0
		for _, l := range r.logs {
			n += l.sent
		}
		return n
	}
	return len(r.W.Pairs) * r.W.Msgs
}

// NumPairs returns the number of directed pairs the run drove traffic on.
func (r *Run) NumPairs() int {
	if r.external {
		n := 0
		for _, l := range r.logs {
			if l.sent > 0 {
				n++
			}
		}
		return n
	}
	return len(r.W.Pairs)
}

// Delivered returns the number of distinct messages that produced at
// least one notification.
func (r *Run) Delivered() int {
	n := 0
	for _, l := range r.logs {
		n += l.delivered
	}
	return n
}

// Duplicates returns the number of extra notifications beyond the first
// per message — nonzero means the exactly-once notification contract
// broke.
func (r *Run) Duplicates() int {
	n := 0
	for _, l := range r.logs {
		n += l.notes - l.delivered
	}
	return n
}

// DeliveredOn returns the number of distinct messages on pr that produced
// at least one notification.
func (r *Run) DeliveredOn(pr Pair) int {
	if l := r.logs[pr]; l != nil {
		return l.delivered
	}
	return 0
}

// Count returns the number of notifications message id raised on pr.
func (r *Run) Count(pr Pair, id uint64) int {
	if l := r.logs[pr]; l != nil {
		return int(l.at(id).notes)
	}
	return 0
}
