package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
)

// golden.json pins one sha256 digest per (workload, seed) for seeds 1 and
// 2 at full scale: the rendered Fig. 3 and Fig. 8 tables, the per-cell
// SLO results, the flap storm's delivery log and engine counts, and the
// chaos runs' outcome lines. A mismatch fails the run, so a change that
// moves simulated results shows in the benchmark.
//
//go:embed golden.json
var goldenJSON []byte

// goldens maps workload → decimal seed → digest.
type goldens map[string]map[string]string

func loadGoldens() goldens {
	g := goldens{}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic(fmt.Sprintf("bench: embedded golden.json: %v", err))
	}
	return g
}

func goldenDigest(name string, seed int64) (string, bool) {
	d, ok := loadGoldens()[name][strconv.FormatInt(seed, 10)]
	return d, ok
}

// goldenSeeds are the seeds -update-golden pins.
var goldenSeeds = []int64{1, 2}

// writeGoldens replaces the golden file with the given digests.
func writeGoldens(path string, g goldens) error {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
