package proptest

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sanft/internal/chaos"
	"sanft/internal/core"
	"sanft/internal/trace"
)

// elisionDump runs one generated scenario and renders all it shows: the
// verdict, the flight-recorder timeline, the metrics time series sampled
// every 3 ms (nic.cpu gauges included) and the cluster's observables.
func elisionDump(seed int64, eager bool) ([]byte, uint64) {
	var c *core.Cluster
	res := runSim(GenSim(seed), func(e *chaos.Engine) {
		c = e.C
		c.Observer().StartSampling(c.K, 3*time.Millisecond)
	}, eager)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n%+v %d %d %d %d\n", res.Summary(), res.Violations,
		res.Delivered, res.Expected, res.UnreachablePairs, res.StaleHeld)
	if c == nil {
		return b.Bytes(), 0
	}
	if err := trace.WriteTimeline(&b, res.Recorder.Ring().Events()); err != nil {
		panic(err)
	}
	obs := c.Observer()
	obs.SampleNow(c.Now())
	if err := obs.WriteJSONL(&b); err != nil {
		panic(err)
	}
	b.Write(c.DumpObservables())
	return b.Bytes(), c.K.Executed()
}

// TestIdleElisionScenarios is the differential test of idle-scan skipping
// over generated one-cell scenarios (random topology, faults and traffic,
// with mapping and a two-second drain): each runs once with every timer
// scan executed and once with idle scans skipped, and both must show the
// same thing, byte for byte.
func TestIdleElisionScenarios(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 40
	}
	var eagerEvents, skipEvents uint64
	for seed := int64(1); seed <= int64(n); seed++ {
		a, ea := elisionDump(seed, true)
		b, eb := elisionDump(seed, false)
		if !bytes.Equal(a, b) {
			la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
			for i := 0; i < len(la) && i < len(lb); i++ {
				if !bytes.Equal(la[i], lb[i]) {
					t.Fatalf("seed %d: runs diverge at line %d:\n  eager:    %.300s\n  skipping: %.300s",
						seed, i+1, la[i], lb[i])
				}
			}
			t.Fatalf("seed %d: runs diverge in length: %d vs %d lines", seed, len(la), len(lb))
		}
		eagerEvents += ea
		skipEvents += eb
	}
	if skipEvents*2 > eagerEvents {
		t.Fatalf("skipping executed %d events, eager %d: want under half", skipEvents, eagerEvents)
	}
}
