package workload

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"sanft/internal/report"
)

// TestLazyWormGrid is the differential test of lazy worms and skipped
// idle scans on the production grid: fattree:16 under each fault, at
// seeds 1 and 2, run once as the eager reference and once as built, must
// give the same SLO table and violations, byte for byte.
func TestLazyWormGrid(t *testing.T) {
	dump := func(seed int64, eager bool) []byte {
		g, err := RunGrid(GridOpts{
			Topos: []string{"fattree:16"},
			Specs: []Spec{
				{Proto: ProtoRPC, Mode: ModeOpen, Clients: 8, Ops: 400},
				{Proto: ProtoKV, Mode: ModeClosed, Clients: 8, Ops: 400},
			},
			Faults: FaultNames,
			Seed:   seed,
			Dur:    30 * time.Millisecond,
			eager:  eager,
		})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := report.Write(&buf, report.NewSLOTable("grid", g.Results), true); err != nil {
			t.Fatal(err)
		}
		for _, v := range g.Violations {
			fmt.Fprintln(&buf, v)
		}
		return buf.Bytes()
	}
	for seed := int64(1); seed <= 2; seed++ {
		if a, b := dump(seed, true), dump(seed, false); !bytes.Equal(a, b) {
			t.Fatalf("seed %d: eager and lazy grids differ:\n%s\n---\n%s", seed, a, b)
		}
	}
}
