// Package fault implements the error-injection mechanisms of the paper's
// evaluation methodology (§5.1.3) plus extensions.
//
// The paper's primary mechanism: "we model network errors by dropping
// packets on the send side NIC, right before they are injected to the
// network. At predefined packet counts, the dropping mechanism on the NIC
// inserts the next packet in the retransmission queue without actually
// transmitting it." IntervalDropper reproduces exactly that: one drop every
// N packets, deterministic.
//
// Extensions (not used by any paper figure, but useful for robustness
// testing): uniform random drops, burst drops, and a transit corruptor that
// flips the CRC-failure flag on in-flight packets.
package fault

import (
	"fmt"
	"math"
	"math/rand"
)

// Dropper decides, per send-side packet, whether to swallow it before it
// reaches the wire.
type Dropper interface {
	// ShouldDrop is called once per data packet about to be transmitted
	// and reports whether to drop it. Implementations may be stateful;
	// calls are made in transmission order.
	ShouldDrop() bool
}

// None is a Dropper that never drops.
type None struct{}

// ShouldDrop always reports false.
func (None) ShouldDrop() bool { return false }

// IntervalDropper drops one packet every Interval packets (on average) —
// the paper's controlled error-rate mechanism. An error rate of 10⁻³ is an
// IntervalDropper with Interval 1000.
//
// JitterFrac spreads each drop point uniformly within
// ±JitterFrac·Interval of its nominal position, preserving the long-run
// rate. With JitterFrac 0 the dropper is strictly periodic; note that a
// strictly periodic dropper whose period divides the go-back-N batch size
// can phase-lock with the retransmission engine so that the head of the
// queue is dropped on every burst — a livelock that real hardware escapes
// only through timing asynchrony. NewRate therefore defaults to 25%
// jitter, which keeps the experiment's error rate exact while breaking the
// pathological alignment.
type IntervalDropper struct {
	Interval   uint64
	JitterFrac float64
	// Seed, when nonzero, seeds the jitter RNG. Zero falls back to a
	// seed derived from the interval alone — reproducible, but identical
	// for every dropper with the same rate. Wire a real seed (NewRateSeeded)
	// when multiple clusters or NICs must see independent drop schedules.
	Seed int64

	rng     *rand.Rand
	next    uint64
	count   uint64
	dropped uint64
}

// NewRate returns an IntervalDropper approximating the given error rate
// (drops-per-packet) with default jitter. Rate 0 returns nil (no dropper).
// Rates above 0.5 are rejected: the protocol's own traffic could never
// make progress.
func NewRate(rate float64) *IntervalDropper {
	return NewRateSeeded(rate, 0)
}

// NewRateSeeded is NewRate with an explicit jitter seed, so distinct
// clusters (and distinct NICs within one cluster) get independent drop
// schedules for the same error rate.
func NewRateSeeded(rate float64, seed int64) *IntervalDropper {
	if rate == 0 {
		return nil
	}
	if rate < 0 || rate > 0.5 {
		panic(fmt.Sprintf("fault: unreasonable error rate %v", rate))
	}
	return &IntervalDropper{Interval: uint64(math.Round(1 / rate)), JitterFrac: 0.25, Seed: seed}
}

func (d *IntervalDropper) advance() {
	step := int64(d.Interval)
	if d.JitterFrac > 0 {
		if d.rng == nil {
			seed := d.Seed
			if seed == 0 {
				// Seed from the interval so runs are reproducible per
				// configuration without external wiring.
				seed = int64(d.Interval) * 7919
			}
			d.rng = rand.New(rand.NewSource(seed))
		}
		j := int64(d.JitterFrac * float64(d.Interval))
		if j > 0 {
			step += d.rng.Int63n(2*j+1) - j
		}
	}
	if step < 1 {
		step = 1
	}
	d.next = d.count + uint64(step)
}

// ShouldDrop reports true roughly once every Interval calls.
func (d *IntervalDropper) ShouldDrop() bool {
	if d.next == 0 {
		d.advance()
	}
	d.count++
	if d.count >= d.next {
		d.dropped++
		d.advance()
		return true
	}
	return false
}

// Seen returns how many packets have been offered.
func (d *IntervalDropper) Seen() uint64 { return d.count }

// Dropped returns how many packets were dropped.
func (d *IntervalDropper) Dropped() uint64 { return d.dropped }

// RandomDropper drops each packet independently with probability Rate.
type RandomDropper struct {
	Rate    float64
	rng     *rand.Rand
	dropped uint64
}

// NewRandom returns a RandomDropper with its own deterministic RNG.
func NewRandom(rate float64, seed int64) *RandomDropper {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("fault: bad drop rate %v", rate))
	}
	return &RandomDropper{Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// ShouldDrop samples the drop decision.
func (d *RandomDropper) ShouldDrop() bool {
	if d.rng.Float64() < d.Rate {
		d.dropped++
		return true
	}
	return false
}

// Dropped returns how many packets were dropped.
func (d *RandomDropper) Dropped() uint64 { return d.dropped }

// BurstDropper drops runs of BurstLen consecutive packets, a burst
// beginning (on average) every 1/Rate packets. Models correlated loss such
// as a path reset discarding everything queued (extension beyond the
// paper's uniform model, which it argues is the more stressful test).
type BurstDropper struct {
	Rate     float64
	BurstLen int
	rng      *rand.Rand
	left     int
}

// NewBurst returns a BurstDropper.
func NewBurst(rate float64, burstLen int, seed int64) *BurstDropper {
	if burstLen < 1 {
		panic("fault: burst length must be ≥ 1")
	}
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("fault: bad burst rate %v", rate))
	}
	return &BurstDropper{Rate: rate, BurstLen: burstLen, rng: rand.New(rand.NewSource(seed))}
}

// ShouldDrop continues an active burst or starts a new one.
func (d *BurstDropper) ShouldDrop() bool {
	if d.left > 0 {
		d.left--
		return true
	}
	if d.rng.Float64() < d.Rate/float64(d.BurstLen) {
		d.left = d.BurstLen - 1
		return true
	}
	return false
}

// Corruptor marks each in-flight packet corrupted with probability Rate;
// the receiving NIC's CRC check then discards it. Install via the fabric
// transit hook. The detection cost equals the loss cost (the paper notes
// dropping subsumes corruption on the receive side).
type Corruptor struct {
	Rate      float64
	rng       *rand.Rand
	corrupted uint64
}

// NewCorruptor returns a Corruptor with a deterministic RNG.
func NewCorruptor(rate float64, seed int64) *Corruptor {
	if rate < 0 || rate > 1 {
		panic(fmt.Sprintf("fault: bad corruption rate %v", rate))
	}
	return &Corruptor{Rate: rate, rng: rand.New(rand.NewSource(seed))}
}

// Corrupt samples the corruption decision and counts hits.
func (c *Corruptor) Corrupt() bool {
	if c.rng.Float64() < c.Rate {
		c.corrupted++
		return true
	}
	return false
}

// Corrupted returns how many packets were corrupted.
func (c *Corruptor) Corrupted() uint64 { return c.corrupted }
