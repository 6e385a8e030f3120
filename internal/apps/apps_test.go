package apps

import (
	"math"
	"math/cmplx"
	"sort"
	"testing"
	"time"

	"sanft/internal/core"
	"sanft/internal/retrans"
	"sanft/internal/topology"
)

// paperCluster builds the Figure 9 platform: 4 nodes (2-way SMPs) on one
// switch.
func paperCluster(errRate float64, q int, interval time.Duration) *core.Cluster {
	nw, hosts := topology.Star(4)
	return core.New(core.Config{
		Net:       nw,
		Hosts:     hosts,
		FT:        true,
		Retrans:   retrans.Config{QueueSize: q, Interval: interval},
		ErrorRate: errRate,
		Seed:      1,
	})
}

func TestFFTInPlaceMatchesDirectDFT(t *testing.T) {
	x := make([]complex128, 64)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.7)*0.5, math.Cos(float64(i)*1.3)*0.5)
	}
	want := dftDirect(x)
	got := append([]complex128(nil), x...)
	fftInPlace(got)
	for i := range want {
		if cmplx.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("fftInPlace differs from direct DFT at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestParallelFFTCorrect(t *testing.T) {
	// 64-point parallel FFT across 8 workers must match the direct DFT
	// of the same deterministic input.
	var out []complex128
	prm := FFTParams{LogN: 6, Iters: 1, Capture: func(v []complex128) { out = v }}
	res, err := RunFFT(paperCluster(0, 32, time.Millisecond), prm)
	if err != nil {
		t.Fatal(err)
	}
	n := 64
	x := make([]complex128, n)
	for j := range x {
		x[j] = complex(math.Sin(float64(j)*0.7)*0.5, math.Cos(float64(j)*1.3)*0.5)
	}
	want := dftDirect(x)
	if out == nil {
		t.Fatal("no captured output")
	}
	for i := range want {
		if cmplx.Abs(out[i]-want[i]) > 1e-6 {
			t.Fatalf("parallel FFT wrong at %d: %v vs %v", i, out[i], want[i])
		}
	}
	if res.Elapsed <= 0 || res.Max.Data == 0 || res.Max.Barrier == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestParallelFFTCorrectUnderErrors(t *testing.T) {
	// Same computation with 1% injected packet loss: answers must be
	// bit-identical in value (the protocol hides the loss), only slower.
	var clean, dirty []complex128
	if _, err := RunFFT(paperCluster(0, 32, time.Millisecond),
		FFTParams{LogN: 8, Iters: 1, Capture: func(v []complex128) { clean = v }}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunFFT(paperCluster(1e-2, 32, time.Millisecond),
		FFTParams{LogN: 8, Iters: 1, Capture: func(v []complex128) { dirty = v }}); err != nil {
		t.Fatal(err)
	}
	for i := range clean {
		if clean[i] != dirty[i] {
			t.Fatalf("error injection changed FFT result at %d", i)
		}
	}
}

func TestRadixSortsCorrectly(t *testing.T) {
	var out []uint32
	prm := RadixParams{Keys: 1 << 12, Iters: 1, Capture: func(v []uint32) { out = v }}
	res, err := RunRadix(paperCluster(0, 32, time.Millisecond), prm)
	if err != nil {
		t.Fatal(err)
	}
	if out == nil {
		t.Fatal("no captured output")
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Fatal("keys not sorted")
	}
	// Permutation check: multiset must equal the deterministic input.
	want := make([]uint32, len(out))
	for i := range want {
		k := uint32(i)*2654435761 + 0*40503
		k ^= k >> 13
		want[i] = k
	}
	sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("key multiset differs at %d: %08x vs %08x", i, out[i], want[i])
		}
	}
	if res.Max.Data == 0 {
		t.Fatal("radix should have Data time (scatter traffic)")
	}
}

func TestRadixCorrectUnderErrors(t *testing.T) {
	var out []uint32
	prm := RadixParams{Keys: 1 << 12, Iters: 1, Capture: func(v []uint32) { out = v }}
	if _, err := RunRadix(paperCluster(1e-2, 32, time.Millisecond), prm); err != nil {
		t.Fatal(err)
	}
	if !sort.SliceIsSorted(out, func(i, j int) bool { return out[i] < out[j] }) {
		t.Fatal("keys not sorted under error injection")
	}
}

func TestWaterRunsAndConservesMomentum(t *testing.T) {
	var pos []float64
	prm := WaterParams{Molecules: 64, Steps: 3, Capture: func(v []float64) { pos = v }}
	res, err := RunWater(paperCluster(0, 32, time.Millisecond), prm)
	if err != nil {
		t.Fatal(err)
	}
	if pos == nil {
		t.Fatal("no captured positions")
	}
	for i, v := range pos {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("position %d is %v", i, v)
		}
	}
	if res.Max.Lock == 0 {
		t.Fatal("water should accumulate Lock time")
	}
	if res.Max.Compute == 0 {
		t.Fatal("water should accumulate Compute time")
	}
}

func TestWaterComputeFractionGrowsWithN(t *testing.T) {
	// Water is O(n²) compute over O(n) communication (paper: small
	// communication-to-computation ratio at its 4096-molecule size).
	// At unit-test scale, assert the scaling property: the compute share
	// rises steeply with molecule count.
	frac := func(n int) float64 {
		res, err := RunWater(paperCluster(0, 32, time.Millisecond),
			WaterParams{Molecules: n, Steps: 2})
		if err != nil {
			t.Fatal(err)
		}
		return float64(res.Mean.Compute) / float64(res.Mean.Total())
	}
	small, large := frac(128), frac(512)
	if large <= small*2 {
		t.Fatalf("compute fraction %v (n=512) not ≫ %v (n=128)", large, small)
	}
}

func TestWaterMatchesSerialReference(t *testing.T) {
	// The parallel run must match a serial reference implementation of
	// the same force/integration scheme.
	n, steps := 27, 2
	var got []float64
	if _, err := RunWater(paperCluster(0, 32, time.Millisecond),
		WaterParams{Molecules: n, Steps: steps, Capture: func(v []float64) { got = v }}); err != nil {
		t.Fatal(err)
	}
	want := serialWater(n, steps)
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Fatalf("position %d: %v vs serial %v", i, got[i], want[i])
		}
	}
}

// serialWater is a plain single-threaded reference of the same scheme.
func serialWater(n, steps int) []float64 {
	side := int(math.Ceil(math.Cbrt(float64(n))))
	pos := make([]float64, n*3)
	vel := make([]float64, n*3)
	for m := 0; m < n; m++ {
		pos[m*3] = float64(m%side) * 1.2
		pos[m*3+1] = float64((m/side)%side) * 1.2
		pos[m*3+2] = float64(m/(side*side)) * 1.2
	}
	for s := 0; s < steps; s++ {
		f := make([]float64, n*3)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				fx, fy, fz := ljForce(pos[i*3], pos[i*3+1], pos[i*3+2], pos[j*3], pos[j*3+1], pos[j*3+2])
				f[i*3] += fx
				f[i*3+1] += fy
				f[i*3+2] += fz
				f[j*3] -= fx
				f[j*3+1] -= fy
				f[j*3+2] -= fz
			}
		}
		for i := range f {
			vel[i] += f[i] * waterDT
			pos[i] += vel[i] * waterDT
		}
	}
	return pos
}

func TestAppsDegradeGracefullyAtHighErrorRates(t *testing.T) {
	// Figure 9's headline: below 1e-3 the applications are barely
	// affected; at 1e-3 and above execution time grows.
	clean, err := RunRadix(paperCluster(0, 32, time.Millisecond), RadixParams{Keys: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := RunRadix(paperCluster(1e-2, 32, time.Millisecond), RadixParams{Keys: 1 << 14})
	if err != nil {
		t.Fatal(err)
	}
	if noisy.Elapsed <= clean.Elapsed {
		t.Fatalf("1e-2 errors should cost something: %v vs %v", noisy.Elapsed, clean.Elapsed)
	}
	if noisy.Elapsed > clean.Elapsed*4 {
		t.Fatalf("1e-2 errors cost too much (%v vs %v); protocol not recovering efficiently",
			noisy.Elapsed, clean.Elapsed)
	}
}

func TestSplitCoversAll(t *testing.T) {
	for _, n := range []int{1, 7, 64, 100} {
		for _, p := range []int{1, 3, 8} {
			total := 0
			prev := 0
			for w := 0; w < p; w++ {
				lo, hi := split(n, p, w)
				if lo != prev {
					t.Fatalf("split(%d,%d,%d) not contiguous", n, p, w)
				}
				total += hi - lo
				prev = hi
			}
			if total != n {
				t.Fatalf("split(%d,%d) covers %d", n, p, total)
			}
		}
	}
}

// TestRunStopsWhenWorkersFinish: each application stops the cluster
// within 1ms of its last worker finishing, instead of idling on to its
// virtual-time bound.
func TestRunStopsWhenWorkersFinish(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(c *core.Cluster) (Result, error)
	}{
		{"fft", func(c *core.Cluster) (Result, error) { return RunFFT(c, FFTParams{LogN: 6, Iters: 1}) }},
		{"radix", func(c *core.Cluster) (Result, error) { return RunRadix(c, RadixParams{Keys: 1 << 12, Iters: 1}) }},
		{"water", func(c *core.Cluster) (Result, error) { return RunWater(c, WaterParams{Molecules: 64, Steps: 1}) }},
	} {
		c := paperCluster(0, 32, time.Millisecond)
		res, err := tc.run(c)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if over := time.Duration(c.Now()) - res.Elapsed; over < 0 || over > time.Millisecond {
			t.Errorf("%s: cluster clock %v, %v past the %v run; want within 1ms", tc.name, c.Now(), over, res.Elapsed)
		}
	}
}
