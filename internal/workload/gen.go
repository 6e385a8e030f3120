package workload

import (
	"fmt"
	"time"

	"sanft/internal/sim"
)

// opsFor splits the total operation budget over clients: the first
// Ops mod Clients clients carry one extra.
func (d *Driver) opsFor(clientIdx int) int {
	n := d.Spec.Ops / d.Spec.Clients
	if clientIdx < d.Spec.Ops%d.Spec.Clients {
		n++
	}
	return n
}

// spawnGenerators starts one generator process per logical client, in
// the discipline the spec selects.
func (d *Driver) spawnGenerators() {
	for _, cl := range d.clients {
		cl := cl
		switch d.Spec.Mode {
		case ModeOpen:
			d.E.C.K.Spawn(fmt.Sprintf("wl-open-%d", cl.idx), func(p *sim.Proc) {
				d.runOpen(p, cl)
			})
		case ModeClosed:
			d.E.C.K.Spawn(fmt.Sprintf("wl-closed-%d", cl.idx), func(p *sim.Proc) {
				d.runClosed(p, cl)
			})
		}
	}
}

// runOpen is the open-loop discipline: arrivals are laid out on a
// virtual Poisson clock at this client's share of the aggregate offered
// rate, independent of completions. When the system falls behind, the
// generator does not slow down — backlogged arrivals issue immediately
// but keep their original scheduled stamps, so the latency they accrue
// while queueing for an admission slot is measured, not omitted.
func (d *Driver) runOpen(p *sim.Proc, cl *clientState) {
	meanNS := float64(d.Spec.Clients) / d.Spec.Rate * 1e9
	next := d.start
	for k, n := 0, d.opsFor(cl.idx); k < n; k++ {
		next = next.Add(time.Duration(cl.rng.ExpFloat64() * meanNS))
		if now := p.Now(); next.After(now) {
			p.Sleep(next.Sub(now))
		}
		if !d.issueOp(p, cl, next) {
			return
		}
	}
}

// runClosed is the closed-loop discipline: the client issues up to
// Pipeline requests, thinking (exponentially) between issues, and the
// latency clock starts at admission — a client waiting on its own
// outstanding window is idle, not suffering.
func (d *Driver) runClosed(p *sim.Proc, cl *clientState) {
	for k, n := 0, d.opsFor(cl.idx); k < n; k++ {
		if k > 0 && d.Spec.Think > 0 {
			p.Sleep(time.Duration(cl.rng.ExpFloat64() * float64(d.Spec.Think)))
		}
		if !d.issueOp(p, cl, -1) {
			return
		}
	}
}
