package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json the comparison needs.
type benchmarkFile struct {
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// readRecords loads every *.json record in dir, in file-name order, so
// runs made alternately on two commits pair up by position.
func readRecords(dir string) ([]record, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	var out []record
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r record
		if err := json.Unmarshal(b, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no records in %s", dir)
	}
	return out, nil
}

// series collects one metric of one workload across records.
func series(rs []record, w, metric string) []float64 {
	var xs []float64
	for _, r := range rs {
		if m, ok := r.Workloads[w].Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

// verdict applies the choosing-metrics rule: a gain needs the change to
// win at least 9 in 10 pairs and a median gap wider than the parent's
// interquartile range; a regression is a median worse by more than the
// bound; a parent spread wider than the bound leaves the metric
// unresolved unless every change run beats every parent run.
func verdict(a, b []float64, lowerBetter bool, bound float64) (wins, pairs int, v string) {
	better := func(x, y float64) bool { // x better than y
		if lowerBetter {
			return x < y
		}
		return x > y
	}
	pairs = min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		if better(b[i], a[i]) {
			wins++
		}
	}
	q1a, ma, q3a := quartiles(a)
	mb := median(b)
	worse := ratio(mb-ma, ma)
	if !lowerBetter {
		worse = -worse
	}
	allBetter := true
	for _, y := range b {
		for _, x := range a {
			allBetter = allBetter && better(y, x)
		}
	}
	gap := mb - ma
	if gap < 0 {
		gap = -gap
	}
	switch {
	case worse < 0 && pairs > 0 && 10*wins >= 9*pairs && gap > q3a-q1a:
		v = "improved"
	case worse > bound:
		v = "worse"
	case ratio(q3a-q1a, ma) > bound && !allBetter:
		v = "unresolved"
	default:
		v = "unchanged"
	}
	return wins, pairs, v
}

// compare prints, for every workload and end-to-end metric, both sides'
// medians and quartiles, the share of pairs the change won, and the
// verdict. It fails if any metric got worse.
func compare(dirA, dirB string) error {
	var bf benchmarkFile
	b, err := os.ReadFile(locate("BENCHMARK.json", "../BENCHMARK.json"))
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, &bf); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	ra, err := readRecords(dirA)
	if err != nil {
		return err
	}
	rb, err := readRecords(dirB)
	if err != nil {
		return err
	}
	fmt.Printf("%-13s %-12s %28s %28s %6s  %s\n", "workload", "metric",
		"parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	worse := 0
	for _, w := range workloads {
		for _, m := range bf.EndToEnd {
			a, c := series(ra, w.name, m.Name), series(rb, w.name, m.Name)
			if len(a) == 0 || len(c) == 0 {
				continue
			}
			wins, pairs, v := verdict(a, c, m.Better == "lower", m.Bound)
			if v == "worse" {
				worse++
			}
			q1a, ma, q3a := quartiles(a)
			q1b, mb, q3b := quartiles(c)
			fmt.Printf("%-13s %-12s %28s %28s %3d/%-2d  %s\n", w.name, m.Name,
				fmt.Sprintf("%.4g [%.4g %.4g]", ma, q1a, q3a),
				fmt.Sprintf("%.4g [%.4g %.4g]", mb, q1b, q3b), wins, pairs, v)
		}
	}
	if worse > 0 {
		return fmt.Errorf("%d workload × metric pairs got worse", worse)
	}
	return nil
}

// ledgerStat is one metric's summary across records.
type ledgerStat struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
	Unit   string  `json:"unit"`
}

// ledgerEntry is a committed baseline: end-to-end medians from the
// untraced records and per-layer medians from the traced ones.
type ledgerEntry struct {
	Machine   machine                          `json:"machine"`
	Seeds     []int64                          `json:"seeds"`
	Untraced  int                              `json:"untraced_runs"`
	Traced    int                              `json:"traced_runs"`
	Workloads map[string]map[string]ledgerStat `json:"workloads"`
}

// ledger summarises a directory of records.
func ledger(dir string, out io.Writer) error {
	rs, err := readRecords(dir)
	if err != nil {
		return err
	}
	var plain, traced []record
	e := ledgerEntry{Machine: rs[0].Machine, Workloads: map[string]map[string]ledgerStat{}}
	for _, r := range rs {
		e.Seeds = append(e.Seeds, r.Seed)
		if r.Trace {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
	}
	e.Untraced, e.Traced = len(plain), len(traced)
	for _, w := range workloads {
		stats := map[string]ledgerStat{}
		add := func(rs []record, defs []metricDef) {
			for _, d := range defs {
				xs := series(rs, w.name, d.Name)
				if len(xs) == 0 {
					continue
				}
				q1, m, q3 := quartiles(xs)
				stats[d.Name] = ledgerStat{Median: m, Q1: q1, Q3: q3, N: len(xs), Unit: d.Unit}
			}
		}
		add(plain, endToEnd)
		add(traced, perLayer())
		e.Workloads[w.name] = stats
	}
	b, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", b)
	return err
}
