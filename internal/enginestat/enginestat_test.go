package enginestat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// fixedProfile is a hand-built Profile with every field populated, so the
// rendering tests exercise all code paths without depending on wall
// clocks.
func fixedProfile() *Profile {
	p := &Profile{}
	p.Engine = EngineStat{
		Workers: 2, Shards: 4, LookaheadNS: 1500,
		RunWallNS: 9_000_000,
		Epochs:    100, BarrierEpochs: 60, SoloBatches: 10,
		Exchanged: 480, WindowNS: 90_000, ActiveShardSum: 180,
	}
	p.Workers = []WorkerStat{
		{Worker: 0, BusyNS: 4_000_000, StallNS: 2_000_000, StealNS: 500_000,
			ExchangeNS: 1_500_000, AwakeNS: 8_200_000, Claims: 150, Events: 9000},
		{Worker: 1, BusyNS: 3_000_000, StallNS: 3_500_000, StealNS: 700_000,
			AwakeNS: 7_400_000, Claims: 90, Events: 5000},
	}
	p.Kernels = []KernelStat{
		{Shard: 0, Scheduled: 5000, Heaped: 900, Cancelled: 120, Executed: 4800, Pending: 80, ArenaHighWater: 64, Switches: 700},
		{Shard: 1, Scheduled: 4000, Heaped: 600, Cancelled: 90, Executed: 3900, Pending: 10, ArenaHighWater: 32, Switches: 40},
	}
	return p
}

func renderJSON(t *testing.T, p *Profile) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.WriteJSON(&b); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return b.Bytes()
}

// TestMergeWorkers pins the flattened totals the Summary fractions are
// derived from.
func TestMergeWorkers(t *testing.T) {
	p := fixedProfile()
	tot := MergeWorkers(p.Workers)
	if tot.BusyNS != 7_000_000 || tot.Events != 14000 || tot.Claims != 240 {
		t.Fatalf("MergeWorkers totals wrong: %+v", tot)
	}
}

// TestRenderByteStable: a given Profile value must render to identical
// bytes every time — the property that makes profiles diffable — and the
// JSON must carry the headline accounts.
func TestRenderByteStable(t *testing.T) {
	j1, j2 := renderJSON(t, fixedProfile()), renderJSON(t, fixedProfile())
	if !bytes.Equal(j1, j2) {
		t.Fatal("render of the same Profile value is not byte-stable")
	}
	for _, want := range []string{`"workers": 2`, `"epochs": 100`, `"busy_ns": 4000000`,
		`"switches": 700`, `"arena_high_water": 32`} {
		if !bytes.Contains(j1, []byte(want)) {
			t.Fatalf("JSON missing %s:\n%s", want, j1)
		}
	}
	var back Profile
	if err := json.Unmarshal(j1, &back); err != nil {
		t.Fatalf("JSON does not parse: %v", err)
	}
	if !bytes.Equal(renderJSON(t, &back), j1) {
		t.Fatal("JSON does not round-trip")
	}
}

// TestSummarize pins the derived ratios on exact inputs.
func TestSummarize(t *testing.T) {
	s := fixedProfile().Summarize()
	if s.Events != 8700 {
		t.Fatalf("Events = %d, want 8700", s.Events)
	}
	if s.EventsPerEpoch != 87 {
		t.Fatalf("EventsPerEpoch = %v, want 87", s.EventsPerEpoch)
	}
	if s.AvgActiveShards != 3 {
		t.Fatalf("AvgActiveShards = %v, want 3", s.AvgActiveShards)
	}
	if s.ArenaHighWater != 64 {
		t.Fatalf("ArenaHighWater = %d, want 64", s.ArenaHighWater)
	}
	fr := s.BusyFrac + s.StallFrac + s.StealFrac + s.ExchangeFrac
	if fr < 0.999 || fr > 1.001 {
		t.Fatalf("fractions sum to %v, want ~1", fr)
	}
}

// TestWorkerStatCharges: charges chain from one mark to the next, so the
// four buckets sum to the awake window exactly, and every method is a
// no-op on a nil record (profiling off).
func TestWorkerStatCharges(t *testing.T) {
	var w WorkerStat
	for round := 0; round < 3; round++ {
		w.Wake()
		for _, b := range []Bucket{Exchange, Steal, Busy, Stall, Exchange} {
			time.Sleep(50 * time.Microsecond)
			w.Charge(b)
		}
		w.Ran(7)
		if d := w.Park(Stall); d <= 0 {
			t.Fatalf("round %d: awake window %dns", round, d)
		}
	}
	if acc := w.accounted(); acc != w.AwakeNS {
		t.Fatalf("accounted %dns vs awake %dns", acc, w.AwakeNS)
	}
	if w.Claims != 3 || w.Events != 21 || w.BusyNS <= 0 || w.ExchangeNS <= 0 {
		t.Fatalf("record %+v", w)
	}
	var off *WorkerStat
	off.Wake()
	off.Charge(Busy)
	off.Ran(1)
	if d := off.Park(Stall); d != 0 {
		t.Fatalf("nil record parked with %dns", d)
	}
	var noProf *EngineProf
	if noProf.Worker(0) != nil {
		t.Fatal("a nil recording area handed out a record")
	}
}

// TestServerEndpoints round-trips every endpoint of a live server on an
// ephemeral port: published snapshots come back verbatim, pprof and
// expvar respond, and unpublished endpoints degrade gracefully.
func TestServerEndpoints(t *testing.T) {
	srv, err := NewServer("127.0.0.1:0")
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	defer srv.Close()
	get := func(path string) (int, string) {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	// Before anything is published.
	if code, body := get("/metrics"); code != 200 || !strings.Contains(body, "no metrics published yet") {
		t.Fatalf("/metrics before publish: %d %q", code, body)
	}
	if code, _ := get("/progress"); code != 404 {
		t.Fatalf("/progress before SetProgress: %d, want 404", code)
	}

	srv.PublishMetrics([]byte("# TYPE up gauge\nup 1\n"))
	if code, body := get("/metrics"); code != 200 || body != "# TYPE up gauge\nup 1\n" {
		t.Fatalf("/metrics: %d %q", code, body)
	}

	srv.SetProgress(func() ProgressSnapshot {
		return ProgressSnapshot{Done: 3, Total: 10, ElapsedMS: 1.5}
	})
	code, body := get("/progress")
	if code != 200 {
		t.Fatalf("/progress: %d", code)
	}
	var ps ProgressSnapshot
	if err := json.Unmarshal([]byte(body), &ps); err != nil {
		t.Fatalf("/progress not JSON: %v", err)
	}
	if ps.Done != 3 || ps.Total != 10 {
		t.Fatalf("/progress = %+v", ps)
	}

	if code, body := get("/debug/pprof/cmdline"); code != 200 || len(body) == 0 {
		t.Fatalf("/debug/pprof/cmdline: %d (%d bytes)", code, len(body))
	}
	if code, body := get("/debug/vars"); code != 200 || !strings.Contains(body, "memstats") {
		t.Fatalf("/debug/vars: %d", code)
	}
	if code, body := get("/"); code != 200 || !strings.Contains(body, "/metrics") {
		t.Fatalf("index: %d %q", code, body)
	}
	if code, _ := get("/nope"); code != 404 {
		t.Fatalf("unknown path: %d, want 404", code)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineProfSnapshot: the collection scaffold hands out per-worker
// slots and snapshots them beside the engine's own totals.
func TestEngineProfSnapshot(t *testing.T) {
	eng := EngineStat{Workers: 3}
	ep := NewEngineProf(3, &eng)
	for w := 0; w < 3; w++ {
		ws := ep.Worker(w)
		ws.BusyNS = int64(100 * (w + 1))
		ws.Events = uint64(w + 1)
	}
	eng.Epochs = 5
	p := ep.Snapshot()
	if len(p.Workers) != 3 || p.Workers[2].BusyNS != 300 {
		t.Fatalf("snapshot workers wrong: %+v", p.Workers)
	}
	if p.Engine.Epochs != 5 {
		t.Fatalf("engine stat not carried: %+v", p.Engine)
	}
	// Snapshot is a copy: mutating it must not touch the live collector.
	p.Workers[0].BusyNS = 999
	if ep.Worker(0).BusyNS == 999 {
		t.Fatal("Snapshot aliases live worker stats")
	}
}

func ExampleProfile_WriteJSON() {
	p := &Profile{}
	p.Engine = EngineStat{Workers: 1, Shards: 2, LookaheadNS: 1000, Epochs: 4, SoloBatches: 4}
	var b bytes.Buffer
	_ = p.WriteJSON(&b)
	fmt.Print(strings.Join(strings.Split(b.String(), "\n")[:4], "\n"))
	// Output:
	// {
	//   "engine": {
	//     "workers": 1,
	//     "shards": 2,
}
