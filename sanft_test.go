package sanft

import (
	"strings"
	"testing"
	"time"
)

// quick returns harness options small enough for unit tests while still
// exercising every code path.
func quick() Options {
	return Options{Sizes: []int{65536}, MaxMessages: 1200, Seed: 1}
}

func TestFig3Reproduction(t *testing.T) {
	r := RunFig3(Options{})
	noFT, ft := r.NoFT.Total(), r.FT.Total()
	if noFT < 7500*time.Nanosecond || noFT > 8500*time.Nanosecond {
		t.Fatalf("no-FT total = %v, want ≈8µs", noFT)
	}
	if ft < 9500*time.Nanosecond || ft > 10500*time.Nanosecond {
		t.Fatalf("FT total = %v, want ≈10µs", ft)
	}
	// Paper: the ~2µs overhead splits roughly equally between send and
	// receive firmware.
	sendOver := r.FT.NICSend - r.NoFT.NICSend
	recvOver := r.FT.NICRecv - r.NoFT.NICRecv
	if sendOver < 700*time.Nanosecond || sendOver > 1300*time.Nanosecond ||
		recvOver < 700*time.Nanosecond || recvOver > 1300*time.Nanosecond {
		t.Fatalf("overhead split send=%v recv=%v, want ≈1µs each", sendOver, recvOver)
	}
	if !strings.Contains(r.String(), "Figure 3") {
		t.Fatal("String() missing title")
	}
}

func TestFig4Reproduction(t *testing.T) {
	r := RunFig4(Options{Sizes: []int{4096, 65536, 1 << 20}})
	for _, l := range r.Latency {
		over := l.FT - l.NoFT
		if over <= 0 || over > 2100*time.Nanosecond {
			t.Fatalf("size %d: latency overhead %v outside (0, 2.1µs]", l.Size, over)
		}
	}
	for _, b := range r.Bandwidth {
		if b.Size < 4096 {
			continue
		}
		for _, pair := range [][2]float64{{b.PPNoFT, b.PPFT}, {b.UniNoFT, b.UniFT}} {
			lost := (pair[0] - pair[1]) / pair[0]
			if lost > 0.04 {
				t.Fatalf("size %d: FT bandwidth overhead %.1f%% > 4%%", b.Size, lost*100)
			}
		}
	}
	// PCI ceiling ≈120 MB/s at 1 MB.
	last := r.Bandwidth[len(r.Bandwidth)-1]
	if last.UniNoFT < 110 || last.UniNoFT > 130 {
		t.Fatalf("1MB unidirectional = %.1f, want ≈120", last.UniNoFT)
	}
}

func TestFig5Reproduction(t *testing.T) {
	r := RunFig5(quick())
	// Index cells by timer for the single 64KB size.
	uni := map[time.Duration]float64{}
	for _, c := range r.Cells {
		uni[c.Timer] = c.Uni
	}
	// Paper: ≤100µs timers hurt clearly even with no errors; 1ms is
	// close to the no-FT baseline.
	if uni[10*time.Microsecond] >= uni[time.Millisecond]*0.83 {
		t.Fatalf("10µs timer (%.1f) should trail 1ms (%.1f) by >17%%",
			uni[10*time.Microsecond], uni[time.Millisecond])
	}
	base := r.Baseline[0].Uni
	if uni[time.Millisecond] < base*0.95 {
		t.Fatalf("1ms timer (%.1f) should be within 5%% of no-FT (%.1f)", uni[time.Millisecond], base)
	}
}

func TestFig6Reproduction(t *testing.T) {
	opt := quick()
	opt.MaxMessages = 2500
	r := RunFig6(opt)
	type key struct {
		timer time.Duration
		rate  float64
	}
	uni := map[key]float64{}
	for _, c := range r.Cells {
		uni[key{c.Timer, c.ErrorRate}] = c.Uni
	}
	// Paper: at 1e-4 and T=1ms, within ~10% of error-free.
	base := r.Baseline[0].Uni
	if v := uni[key{time.Millisecond, 1e-4}]; v < base*0.90 {
		t.Fatalf("1ms @ 1e-4 = %.1f, want within 10%% of %.1f", v, base)
	}
	// Paper: a 1s timer collapses under errors (>72% drop).
	if v := uni[key{time.Second, 1e-3}]; v > base*0.5 {
		t.Fatalf("1s @ 1e-3 = %.1f, should collapse vs %.1f", v, base)
	}
	// Robustness ordering at 1e-2: 1ms comfortably beats 1s.
	if uni[key{time.Millisecond, 1e-2}] <= uni[key{time.Second, 1e-2}] {
		t.Fatal("1ms should beat 1s at 1e-2")
	}
}

func TestFig7Reproduction(t *testing.T) {
	r := RunFig7(quick())
	uni := map[int]float64{}
	for _, c := range r.Cells {
		uni[c.Queue] = c.Uni
	}
	// Paper: q≥8 reaches close-to-maximum bandwidth; q=2 clearly lower.
	if uni[2] >= uni[8]*0.95 {
		t.Fatalf("q=2 (%.1f) should clearly trail q=8 (%.1f)", uni[2], uni[8])
	}
	for _, q := range []int{8, 32, 128} {
		if uni[q] < uni[32]*0.9 {
			t.Fatalf("q=%d (%.1f) should be near q=32 (%.1f) with no errors", q, uni[q], uni[32])
		}
	}
}

func TestFig8Reproduction(t *testing.T) {
	opt := quick()
	opt.MaxMessages = 2500
	r := RunFig8(opt)
	type key struct {
		q    int
		rate float64
	}
	uni := map[key]float64{}
	for _, c := range r.Cells {
		uni[key{c.Queue, c.ErrorRate}] = c.Uni
	}
	base := r.Baseline[0].Uni
	// Paper: at 1e-4 or less, any q≥8 stays close to best.
	if v := uni[key{32, 1e-4}]; v < base*0.85 {
		t.Fatalf("q32 @ 1e-4 = %.1f, want near %.1f", v, base)
	}
	// Paper's headline: q=128 at 1e-2 unidirectional loses >30%, and
	// does clearly worse than q=32 at the same rate (sender-based
	// feedback delays acks; go-back-N resends huge bursts).
	if v := uni[key{128, 1e-2}]; v > base*0.70 {
		t.Fatalf("q128 @ 1e-2 = %.1f, want >30%% below %.1f", v, base)
	}
	if uni[key{128, 1e-2}] >= uni[key{32, 1e-2}] {
		t.Fatalf("q128 (%.1f) should trail q32 (%.1f) at 1e-2",
			uni[key{128, 1e-2}], uni[key{32, 1e-2}])
	}
}

func TestFig9Reproduction(t *testing.T) {
	// 1e-2 rather than the figure's 1e-3: the scaled problem size moves
	// too few packets for ten drops at 1e-3 (the paper lengthened runs
	// precisely to avoid this); the bench harness covers 1e-3 at scale.
	cells, err := RunFig9([]string{"radix"}, []float64{0, 1e-2},
		[]Fig9Config{{time.Millisecond, 2}, {time.Millisecond, 32}}, ScaledFig9, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != 4 {
		t.Fatalf("got %d cells", len(cells))
	}
	byKey := func(rate float64, q int) Fig9Cell {
		for _, c := range cells {
			if c.ErrorRate == rate && c.Queue == q {
				return c
			}
		}
		t.Fatalf("missing cell %g/%d", rate, q)
		return Fig9Cell{}
	}
	clean, noisy := byKey(0, 32), byKey(1e-2, 32)
	if noisy.Elapsed <= clean.Elapsed {
		t.Fatalf("1e-2 errors should lengthen execution: %v vs %v", noisy.Elapsed, clean.Elapsed)
	}
	for _, c := range cells {
		if c.Breakdown.Data == 0 || c.Breakdown.Barrier == 0 {
			t.Fatalf("cell %+v missing breakdown buckets", c)
		}
	}
	if !strings.Contains(Fig9String(cells), "radix") {
		t.Fatal("Fig9String missing app name")
	}
}

func TestTable3Reproduction(t *testing.T) {
	rows := RunTable3(Options{})
	if len(rows) != 4 {
		t.Fatalf("got %d rows", len(rows))
	}
	for i, r := range rows {
		if r.Hops != i+1 {
			t.Fatalf("row %d hops = %d", i, r.Hops)
		}
		if r.Total != r.HostProbes+r.SwitchProbes {
			t.Fatal("total mismatch")
		}
		if i > 0 {
			prev := rows[i-1]
			if r.Total <= prev.Total || r.MapTime <= prev.MapTime {
				t.Fatalf("probe count/time not increasing with distance: %+v then %+v", prev, r)
			}
		}
	}
	// Paper's magnitudes: a few tens of probes per hop level, mapping
	// times from a few ms to ~100ms; ours should be the same order.
	if rows[0].MapTime < time.Millisecond || rows[3].MapTime > 500*time.Millisecond {
		t.Fatalf("map times out of plausible range: %v .. %v", rows[0].MapTime, rows[3].MapTime)
	}
	if !strings.Contains(Table3String(rows), "Table 3") {
		t.Fatal("missing title")
	}
}

func TestMappingAblation(t *testing.T) {
	rows := RunMappingAblation(Options{})
	for _, r := range rows {
		if r.OnDemandProbes >= r.FullProbes {
			t.Fatalf("on-demand (%d probes) not cheaper than full map (%d) at %d hops",
				r.OnDemandProbes, r.FullProbes, r.Hops)
		}
		if r.OnDemandTime >= r.FullTime {
			t.Fatalf("on-demand not faster at %d hops", r.Hops)
		}
	}
	if !strings.Contains(MappingAblationString(rows), "on-demand") {
		t.Fatal("missing render")
	}
}

func TestAckAblation(t *testing.T) {
	r := RunAckAblation(4096, Options{MaxMessages: 600})
	if r.PiggybackedAcks == 0 {
		t.Fatal("no piggybacked acks with the optimization on")
	}
	if r.ExplicitAcksWithout <= r.ExplicitAcksWith {
		t.Fatalf("disabling piggyback should raise explicit acks: %d vs %d",
			r.ExplicitAcksWithout, r.ExplicitAcksWith)
	}
	if r.WithPiggyback < r.WithoutPiggyback*0.98 {
		t.Fatalf("piggybacking should not hurt bandwidth: %.1f vs %.1f",
			r.WithPiggyback, r.WithoutPiggyback)
	}
}

func TestFeedbackAblation(t *testing.T) {
	rows := RunFeedbackAblation(65536, []int{128}, []float64{0, 1e-2}, Options{MaxMessages: 1500})
	var clean, noisy FeedbackAblationRow
	for _, r := range rows {
		if r.ErrorRate == 0 {
			clean = r
		} else {
			noisy = r
		}
	}
	// Finding 1: under a saturating one-way stream the starvation escape
	// dominates both policies (near ack-per-packet), and bandwidth is
	// identical — explicit-ack volume is not a bandwidth bottleneck.
	if clean.AdaptiveAcks == 0 || clean.FixedAcks == 0 {
		t.Fatal("no acks recorded")
	}
	if ratio := clean.Fixed / clean.Adaptive; ratio < 0.97 || ratio > 1.03 {
		t.Fatalf("error-free bandwidth should match: adaptive %.1f vs fixed %.1f",
			clean.Adaptive, clean.Fixed)
	}
	// And the finding: under errors the policies degrade the same —
	// post-drop waste is bounded by queue headroom, not ack frequency
	// (see EXPERIMENTS.md). Guard the finding within 10%.
	ratio := noisy.Fixed / noisy.Adaptive
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("under errors the policies should degrade alike; got %.1f vs %.1f",
			noisy.Adaptive, noisy.Fixed)
	}
}

func TestPublicAPISmoke(t *testing.T) {
	// The facade exposes enough to build a custom scenario end to end.
	c := New(WithStar(2), WithRetrans(DefaultParams()), WithFaultTolerance())
	a, b := c.EndpointAt(0), c.EndpointAt(1)
	exp := b.Export("inbox", 128)
	got := false
	c.K.Spawn("app", func(p *Proc) {
		imp, err := a.Import(b.Node(), "inbox")
		if err != nil {
			t.Error(err)
			return
		}
		imp.Send(p, 0, []byte("ping"), true)
	})
	c.K.Spawn("recv", func(p *Proc) {
		exp.WaitNotification(p)
		got = true
	})
	c.RunFor(time.Millisecond)
	c.Stop()
	if !got {
		t.Fatal("message not delivered through the public API")
	}
}
