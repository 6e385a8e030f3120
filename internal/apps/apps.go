// Package apps implements the three SPLASH-2 applications of the paper's
// evaluation (§5.1.4, Table 2, Figure 9), running on the SVM substrate
// over the simulated cluster:
//
//   - FFT: a six-step 1-D complex FFT (transpose / row FFT / twiddle /
//     transpose / row FFT / transpose). Single-writer, bandwidth-bound:
//     the transposes are all-to-all page traffic.
//   - RadixLocal: LSD integer radix sort with per-digit histogram
//     exchange and scattered key redistribution — fine-grained,
//     latency-sensitive accesses.
//   - WaterNSquared: O(n²) molecular dynamics with lock-guarded force
//     accumulation — high compute-to-communication ratio, heavy lock
//     synchronization.
//
// The kernels do real arithmetic on real data (results are validated
// against serial references in tests); the virtual time their computation
// takes is charged through a cost model calibrated to the paper's 450 MHz
// Pentium II hosts.
package apps

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/svm"
)

// CostModel charges virtual time for host computation.
type CostModel struct {
	// Flop is the time per floating-point operation (450 MHz PII running
	// real FFT/MD code: ~100 Mflop/s sustained).
	Flop time.Duration
	// Mem is the time per byte moved by host memory copies.
	Mem time.Duration
	// Key is the time per key per radix-sort pass (histogram or scatter).
	Key time.Duration
}

// DefaultCostModel matches the paper's hosts.
func DefaultCostModel() CostModel {
	return CostModel{
		Flop: 10 * time.Nanosecond,
		Mem:  3 * time.Nanosecond,
		Key:  8 * time.Nanosecond,
	}
}

// Result summarizes one application run.
type Result struct {
	Name    string
	Elapsed time.Duration
	// Mean and Max are per-worker breakdown aggregates (Figure 9 plots
	// the equivalent of Max: the visible critical path per bucket).
	Mean svm.Breakdown
	Max  svm.Breakdown
	// Workers is the worker count P.
	Workers int
}

func (r Result) String() string {
	return fmt.Sprintf("%s: elapsed=%v compute=%v data=%v lock=%v barrier=%v (max across %d workers)",
		r.Name, r.Elapsed, r.Max.Compute, r.Max.Data, r.Max.Lock, r.Max.Barrier, r.Workers)
}

// runOn builds an SVM system on the cluster, runs body on P workers, and
// collects the result. The cluster runs in 1ms slices until the workers
// finish, so it stops within 1ms of the last one instead of idling
// through its retransmission timer ticks; bound caps virtual time.
func runOn(c *core.Cluster, name string, heapBytes, procsPerNode, numLocks int, bound time.Duration, body func(w *svm.Worker)) (Result, *svm.Run, error) {
	s := svm.New(c, c.Hosts, svm.Config{
		HeapBytes:    heapBytes,
		ProcsPerNode: procsPerNode,
		NumLocks:     numLocks,
	})
	s.Start()
	run := s.SpawnWorkers(body)
	for end := c.Now().Add(bound); !run.Done() && c.Now() < end; {
		c.RunFor(min(time.Millisecond, end.Sub(c.Now())))
	}
	c.Stop()
	if !run.Done() {
		return Result{}, run, fmt.Errorf("apps: %s did not finish within %v of virtual time", name, bound)
	}
	return Result{
		Name:    name,
		Elapsed: run.Elapsed(),
		Mean:    run.MeanBreakdown(),
		Max:     run.MaxBreakdown(),
		Workers: s.Workers(),
	}, run, nil
}

// split returns worker w's half-open share [lo,hi) of n items over P
// workers.
func split(n, p, w int) (lo, hi int) {
	per := n / p
	rem := n % p
	lo = w*per + mini(w, rem)
	hi = lo + per
	if w < rem {
		hi++
	}
	return lo, hi
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
