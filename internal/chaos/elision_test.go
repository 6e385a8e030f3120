package chaos

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
	"time"

	"sanft/internal/core"
)

// elisionRun is everything a campaign run shows: its report, the metrics
// time series sampled every millisecond (nic.cpu gauges included), and
// the cluster's observables dump. It also keeps the kernel's event count.
type elisionRun struct {
	rep     *Report
	samples []byte
	dump    []byte
	events  uint64
}

func runElision(camp Campaign, seed int64) elisionRun {
	var c *core.Cluster
	rep := camp.RunInstrumented(seed, func(cl *core.Cluster) {
		c = cl
		cl.Observer().StartSampling(cl.K, 5*time.Millisecond)
	})
	obs := c.Observer()
	obs.SampleNow(c.Now())
	var b bytes.Buffer
	if err := obs.WriteJSONL(&b); err != nil {
		panic(err)
	}
	return elisionRun{rep: rep, samples: b.Bytes(), dump: c.DumpObservables(), events: c.K.Executed()}
}

// TestIdleElisionCampaigns is the differential test of idle-scan
// skipping: each baseline campaign at seeds 1-4 runs once with every
// timer scan executed and once with idle scans skipped, and both runs
// must show the same thing, byte for byte.
func TestIdleElisionCampaigns(t *testing.T) {
	eager := Baseline()
	eager.eager = true
	eagerCamps := CampaignsWith(eager)
	for i, camp := range Campaigns() {
		camp, ref := camp, eagerCamps[i]
		t.Run(camp.Name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				a, b := runElision(ref, seed), runElision(camp, seed)
				if !reflect.DeepEqual(a.rep, b.rep) {
					t.Fatalf("seed %d: reports differ:\neager:\n%s\nskipping:\n%s", seed, a.rep, b.rep)
				}
				if err := firstDiff(a.samples, b.samples); err != nil {
					t.Fatalf("seed %d: sampled metrics differ: %v", seed, err)
				}
				if err := firstDiff(a.dump, b.dump); err != nil {
					t.Fatalf("seed %d: observables differ: %v", seed, err)
				}
				if b.events*2 > a.events {
					t.Fatalf("seed %d: skipping executed %d events, eager %d: want under half", seed, b.events, a.events)
				}
			}
		})
	}
}

// firstDiff reports the first line on which a and b differ.
func firstDiff(a, b []byte) error {
	if bytes.Equal(a, b) {
		return nil
	}
	la, lb := bytes.Split(a, []byte("\n")), bytes.Split(b, []byte("\n"))
	for i := 0; i < len(la) && i < len(lb); i++ {
		if !bytes.Equal(la[i], lb[i]) {
			return fmt.Errorf("line %d:\n  eager:    %.300s\n  skipping: %.300s", i+1, la[i], lb[i])
		}
	}
	return fmt.Errorf("%d vs %d lines", len(la), len(lb))
}
