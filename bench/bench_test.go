package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"testing"
	"time"

	"sanft/internal/sim"
)

// testScale runs every workload body at 1/50 of its benchmark size.
const testScale = 0.02

// TestWorkloadsDeterministic runs each workload twice at the same seed:
// every unit must pass and the two digests must match.
func TestWorkloadsDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := runOpts{seed: 3, scale: testScale}
			a, da := runWorkload(w, o)
			b, db := runWorkload(w, o)
			if !a.Correct || a.Failed != 0 || a.Attempted == 0 {
				t.Fatalf("first run: correct=%v attempted=%d failed=%d", a.Correct, a.Attempted, a.Failed)
			}
			if !b.Correct || b.Failed != 0 {
				t.Fatalf("second run: correct=%v failed=%d", b.Correct, b.Failed)
			}
			if da != db {
				t.Fatalf("digest %s then %s at the same seed", da, db)
			}
		})
	}
}

// benchmarkJSON mirrors BENCHMARK.json's metric and workload lists.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json's workloads and
// metric definitions identical to the ones the code prints.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	bj := readBenchmarkJSON(t)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	var jsonNames []string
	for _, w := range bj.Workloads {
		jsonNames = append(jsonNames, w.Name)
	}
	if !reflect.DeepEqual(names, jsonNames) {
		t.Errorf("workloads: code %v, BENCHMARK.json %v", names, jsonNames)
	}
	for _, c := range []struct {
		kind       string
		code, json []metricDef
	}{{"end_to_end", endToEnd, bj.EndToEnd}, {"per_layer", perLayer(), bj.PerLayer}} {
		if !reflect.DeepEqual(c.code, c.json) {
			t.Errorf("%s: code %v\nBENCHMARK.json %v", c.kind, c.code, c.json)
		}
	}
}

// TestPassesEmitEveryMetric checks that an untraced run reports exactly
// the end-to-end metrics and a traced run exactly the per-layer ones.
func TestPassesEmitEveryMetric(t *testing.T) {
	bj := readBenchmarkJSON(t)
	w, _ := findWorkload("chaos-suite")
	for _, c := range []struct {
		trace bool
		defs  []metricDef
	}{{false, bj.EndToEnd}, {true, bj.PerLayer}} {
		res, _ := runWorkload(w, runOpts{seed: 1, scale: testScale, trace: c.trace, outDir: t.TempDir()})
		if len(res.Metrics) != len(c.defs) {
			t.Errorf("trace=%v: %d metrics, BENCHMARK.json lists %d", c.trace, len(res.Metrics), len(c.defs))
		}
		for _, d := range c.defs {
			m, ok := res.Metrics[d.Name]
			if !ok || m.Unit != d.Unit {
				t.Errorf("trace=%v: metric %s missing or unit %q != %q", c.trace, d.Name, m.Unit, d.Unit)
			}
		}
	}
}

// TestProfileAttribution records a CPU profile of kernel work and checks
// the decoder charges samples to the sim layer.
func TestProfileAttribution(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("cpu profiling unavailable: %v", err)
	}
	k := sim.New(1)
	fn := func() {}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := 0; i < 10000; i++ {
			k.After(time.Microsecond, fn)
			k.Step()
		}
	}
	pprof.StopCPUProfile()
	samples, err := decodeProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	cpu, _ := attribute(samples)
	if cpu["sim"] == 0 {
		t.Fatalf("no sample attributed to sim among %d samples: %v", len(samples), cpu)
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the acceptance check uses.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{10, 10.1, 9.9, 10.05, 9.95, 10, 10.1, 9.9, 10.02, 9.98}
	shift := func(d float64) []float64 {
		out := make([]float64, len(parent))
		for i, x := range parent {
			out[i] = x + d
		}
		return out
	}
	noisy := []float64{8, 12, 9, 11, 10, 7, 13, 10, 9, 11}
	for _, c := range []struct {
		name string
		a, b []float64
		want string
	}{
		{"faster", parent, shift(-1), "improved"},
		{"slower", parent, shift(2), "worse"},
		{"same", parent, shift(0.01), "unchanged"},
		{"noisy", noisy, noisy, "unresolved"},
	} {
		if _, _, v := verdict(c.a, c.b, true, 0.1); v != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, v, c.want)
		}
	}
}
