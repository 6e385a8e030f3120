package sanft

import (
	"math"
	"strings"
	"time"

	"sanft/internal/core"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// PaperSizes is the message-size axis of the paper's bandwidth figures:
// 4 B to 1 MB in powers of four.
var PaperSizes = []int{4, 16, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20}

// PaperTimers is the retransmission-interval axis of Figures 5–6.
var PaperTimers = []time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	time.Second,
}

// PaperQueues is the send-queue-size axis of Figures 7–8 (Table 1).
var PaperQueues = []int{2, 8, 32, 128}

// PaperErrorRates are the injected error rates of Figures 6 and 8.
var PaperErrorRates = []float64{1e-2, 1e-3, 1e-4}

// Options tunes how much work the experiment harness performs. The zero
// value gives a quick run that preserves every figure's shape; Paper-scale
// runs multiply the traffic so that even the lowest error rates see the
// paper's "at least ten drops".
type Options struct {
	// Sizes overrides the message-size axis (default: a 5-point subset
	// of PaperSizes for sweeps, the full axis for Figure 4).
	Sizes []int
	// MaxMessages caps per-cell message count (default 4000).
	MaxMessages int
	// Seed drives all randomness.
	Seed int64
}

// Per-cell message-count floors: every non-zero-error cell injects at
// least minDrops drops (like the paper), and every cell sends at least
// minMessages messages.
const (
	minDrops    = 10
	minMessages = 20
)

func (o Options) defaults() Options {
	if o.MaxMessages == 0 {
		o.MaxMessages = 4000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// sweepSizes is the default size subset for the parameter sweeps
// (Figures 5–8): the paper's conclusions there concern sizes ≥4 KB, where
// bandwidth matters.
var sweepSizes = []int{1024, 4096, 65536, 1 << 20}

// iters picks the per-cell message count: enough bytes for a stable
// bandwidth estimate and enough packets for minDrops drops at the given
// error rate.
func (o Options) iters(size int, rate float64) int {
	chunks := (size + 4095) / 4096
	if chunks < 1 {
		chunks = 1
	}
	// Bandwidth stability: ≥ 8 MB or minMessages, whichever is more.
	n := max((8<<20)/size, minMessages)
	if rate > 0 {
		need := int(math.Ceil(minDrops / rate / float64(chunks)))
		if need > n {
			n = need
		}
	}
	if n > o.MaxMessages {
		n = o.MaxMessages
	}
	return n
}

// twoNode builds a fresh 2-host cluster for one micro-benchmark cell.
func twoNode(ft bool, q int, interval time.Duration, rate float64, seed int64) *core.Cluster {
	nw, hosts := topology.Star(2)
	return core.New(core.Config{
		Net:       nw,
		Hosts:     hosts,
		FT:        ft,
		Retrans:   retrans.Config{QueueSize: q, Interval: interval},
		ErrorRate: rate,
		Seed:      seed,
	})
}

// fourNode builds the application platform: 4 nodes on one switch.
func fourNode(q int, interval time.Duration, rate float64, seed int64) *core.Cluster {
	nw, hosts := topology.Star(4)
	return core.New(core.Config{
		Net:       nw,
		Hosts:     hosts,
		FT:        true,
		Retrans:   retrans.Config{QueueSize: q, Interval: interval},
		ErrorRate: rate,
		Seed:      seed,
	})
}

// fmtTimer renders a timer interval the way the paper labels it (10us,
// 1ms, 1s).
func fmtTimer(d time.Duration) string {
	s := d.String()
	s = strings.Replace(s, "µs", "us", 1)
	return s
}
