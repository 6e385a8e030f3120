package enginestat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
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
			ExchangeNS: 1_500_000, AwakeNS: 8_200_000, Claims: 150,
			StealAttempts: 200, StealHits: 150, Wakes: 0, Parks: 0, Events: 9000},
		{Worker: 1, BusyNS: 3_000_000, StallNS: 3_500_000, StealNS: 700_000,
			AwakeNS: 7_400_000, Claims: 90, StealAttempts: 180, StealHits: 90,
			Wakes: 3, Parks: 3, Events: 5000},
	}
	p.Kernels = []KernelStat{
		{Shard: 0, Scheduled: 5000, Heaped: 900, Cancelled: 120, Executed: 4800, Pending: 80, ArenaHighWater: 64, Switches: 700,
			ByKind: EventKinds{Tick: 1000, Resource: 2000, Worm: 1500, Wake: 200, Other: 100}},
		{Shard: 1, Scheduled: 4000, Heaped: 600, Cancelled: 90, Executed: 3900, Pending: 10, ArenaHighWater: 32, Switches: 40,
			ByKind: EventKinds{Tick: 900, Resource: 1800, Wake: 100, Pipe: 1000, Other: 100}},
	}
	p.Pools = PoolStat{FrameGets: 10000, FrameMisses: 120, PacketGets: 8000, PacketMisses: 50}
	p.Spans = []Span{
		{Worker: 0, Kind: SpanShard, Shard: 1, StartNS: 100, EndNS: 350},
		{Worker: 1, Kind: SpanShard, Shard: 2, StartNS: 120, EndNS: 300},
		{Worker: 0, Kind: SpanBarrier, Shard: -1, StartNS: 350, EndNS: 500},
		{Worker: 0, Kind: SpanExchange, Shard: -1, StartNS: 500, EndNS: 620},
		{Worker: 0, Kind: SpanSolo, Shard: 0, StartNS: 620, EndNS: 900},
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

// TestAddFromCommutative pins the merge discipline: folding profiles in
// either order gives identical results, field for field.
func TestAddFromCommutative(t *testing.T) {
	a1, b1 := fixedProfile(), otherProfile()
	a1.AddFrom(b1)

	b2, a2 := otherProfile(), fixedProfile()
	b2.AddFrom(a2)

	// Span order differs by construction (concatenation order); the export
	// re-sorts, so compare everything else directly and spans as sets via
	// the sorted Chrome trace.
	ja, jb := renderJSON(t, a1), renderJSON(t, b2)
	if !bytes.Equal(ja, jb) {
		t.Fatalf("AddFrom not commutative:\na+b:\n%s\nb+a:\n%s", ja, jb)
	}
	if a1.SpansDropped != 3 || !bytes.Contains(ja, []byte(`"spans_dropped": 3`)) {
		t.Fatalf("merged SpansDropped = %d, want 3 and rendered", a1.SpansDropped)
	}
	if got := a1.Kernels[0].Switches; got != 706 || !bytes.Contains(ja, []byte(`"switches": 706`)) {
		t.Fatalf("merged shard-0 Switches = %d, want 700+6 and rendered", got)
	}
	want := EventKinds{Tick: 1100, Resource: 2200, Worm: 1600, Wake: 240, Pipe: 30, Other: 110}
	if got := a1.Kernels[0].ByKind; got != want || !bytes.Contains(ja, []byte(`"by_kind": {`)) ||
		!bytes.Contains(ja, []byte(`"resource": 2200`)) {
		t.Fatalf("merged shard-0 ByKind = %+v, want %+v and rendered", got, want)
	}
	if got := a1.Kernels[1].ByKind; got != fixedProfile().Kernels[1].ByKind {
		t.Fatalf("shard-1 ByKind = %+v changed by a merge with no shard 1", got)
	}
	var ta, tb bytes.Buffer
	if err := a1.WriteChromeTrace(&ta); err != nil {
		t.Fatal(err)
	}
	if err := b2.WriteChromeTrace(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Fatal("WriteChromeTrace differs between a+b and b+a merges")
	}
}

func otherProfile() *Profile {
	p := &Profile{}
	p.Engine = EngineStat{
		Workers: 2, Shards: 4, LookaheadNS: 1500,
		RunWallNS: 1_000_000, Epochs: 7, BarrierEpochs: 3, SoloBatches: 2,
		Exchanged: 11, WindowNS: 4_500, ActiveShardSum: 8,
	}
	p.Workers = []WorkerStat{
		{Worker: 0, BusyNS: 600_000, StallNS: 100_000, ExchangeNS: 200_000,
			AwakeNS: 950_000, Claims: 9, Events: 400},
	}
	p.Kernels = []KernelStat{
		{Shard: 0, Scheduled: 500, Heaped: 70, Cancelled: 10, Executed: 480, Pending: 10, ArenaHighWater: 128, Switches: 6,
			ByKind: EventKinds{Tick: 100, Resource: 200, Worm: 100, Wake: 40, Pipe: 30, Other: 10}},
	}
	p.Pools = PoolStat{FrameGets: 100, FrameMisses: 2, PacketGets: 90, PacketMisses: 1}
	p.Spans = []Span{{Worker: 1, Kind: SpanShard, Shard: 3, StartNS: 90, EndNS: 110}}
	p.SpansDropped = 3
	return p
}

// TestAddFromArenaHighWaterMax: the arena mark is a high-water mark, not
// a flow; merging takes the max.
func TestAddFromArenaHighWaterMax(t *testing.T) {
	a, b := fixedProfile(), otherProfile()
	a.AddFrom(b)
	if got := a.Kernels[0].ArenaHighWater; got != 128 {
		t.Fatalf("merged ArenaHighWater = %d, want max(64,128)=128", got)
	}
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
// bytes every time, for all three exporters — the property that makes
// profiles diffable and the BENCH rows reproducible.
func TestRenderByteStable(t *testing.T) {
	render := func(p *Profile) (string, string, string) {
		var j, x, c bytes.Buffer
		if err := p.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteText(&x); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		return j.String(), x.String(), c.String()
	}
	j1, x1, c1 := render(fixedProfile())
	j2, x2, c2 := render(fixedProfile())
	if j1 != j2 || x1 != x2 || c1 != c2 {
		t.Fatal("render of the same Profile value is not byte-stable")
	}
	for _, s := range []string{j1, x1, c1} {
		if len(s) == 0 {
			t.Fatal("empty render")
		}
	}
	// The text report must surface the headline accounts.
	for _, want := range []string{"engine: workers=2 shards=4", "epochs        100", "worker",
		"by kind: tick=1000 resource=2000 worm=1500 wake=200 pipe=0 other=100"} {
		if !strings.Contains(x1, want) {
			t.Fatalf("text report missing %q:\n%s", want, x1)
		}
	}
	// The Chrome trace must be valid JSON with one event per span + metadata.
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(c1), &tr); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	p := fixedProfile()
	wantEvents := len(p.Spans) + 1 /* process meta */ + 2 /* thread metas */
	if len(tr.TraceEvents) != wantEvents {
		t.Fatalf("chrome trace has %d events, want %d", len(tr.TraceEvents), wantEvents)
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
	if s.StealHitRate != round4(240.0/380.0) {
		t.Fatalf("StealHitRate = %v", s.StealHitRate)
	}
	if s.FramePoolHit != round4(1-120.0/10000.0) {
		t.Fatalf("FramePoolHit = %v", s.FramePoolHit)
	}
	if s.ArenaHighWater != 64 {
		t.Fatalf("ArenaHighWater = %d, want 64", s.ArenaHighWater)
	}
	fr := s.BusyFrac + s.StallFrac + s.StealFrac + s.ExchangeFrac
	if fr < 0.999 || fr > 1.001 {
		t.Fatalf("fractions sum to %v, want ~1", fr)
	}
}

// TestSpanLogCap: the recorder keeps its memory bound hard and counts
// what it drops.
func TestSpanLogCap(t *testing.T) {
	lg := &SpanLog{cap: 2}
	for i := 0; i < 5; i++ {
		lg.Record(Span{StartNS: int64(i)})
	}
	if len(lg.spans) != 2 || lg.Dropped() != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2/3", len(lg.spans), lg.Dropped())
	}
	var nilLog *SpanLog
	nilLog.Record(Span{}) // must not panic
	if nilLog.Dropped() != 0 {
		t.Fatal("nil log reported drops")
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
// slots and snapshots them with spans concatenated.
func TestEngineProfSnapshot(t *testing.T) {
	ep := NewEngineProf(3)
	ep.EnableSpans(16)
	for w := 0; w < 3; w++ {
		ws := ep.Worker(w)
		ws.BusyNS = int64(100 * (w + 1))
		ws.Events = uint64(w + 1)
		ep.Spans(w).Record(Span{Worker: w, Kind: SpanShard, Shard: w, StartNS: int64(w), EndNS: int64(w) + 10})
	}
	ep.Engine.Epochs = 5
	p := ep.Snapshot()
	if len(p.Workers) != 3 || p.Workers[2].BusyNS != 300 {
		t.Fatalf("snapshot workers wrong: %+v", p.Workers)
	}
	if len(p.Spans) != 3 {
		t.Fatalf("snapshot has %d spans, want 3", len(p.Spans))
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

func ExampleProfile_WriteText() {
	p := &Profile{}
	p.Engine = EngineStat{Workers: 1, Shards: 2, LookaheadNS: 1000, Epochs: 4, SoloBatches: 4}
	p.Kernels = []KernelStat{{Shard: 0, Scheduled: 10, Executed: 10}}
	var b bytes.Buffer
	_ = p.WriteText(&b)
	fmt.Print(strings.Split(b.String(), "\n")[0])
	// Output: engine: workers=1 shards=2 lookahead=1µs
}
