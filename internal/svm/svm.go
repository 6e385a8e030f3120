// Package svm implements a home-based shared-virtual-memory protocol in
// the style of GeNIMA/HLRC — the substrate the paper's SPLASH-2
// applications run on (§5.1.4, Figure 9).
//
// Model:
//
//   - One shared address space of 4 KB pages, homed round-robin across the
//     cluster's nodes. Each node caches pages; two worker processes per
//     node (SMP) share the cache.
//   - Reads fetch missing pages from their home over VMMC (a page-request
//     control message answered with a page deposit).
//   - Writes go to the local cache and are tracked as dirty byte spans
//     (diffs), so false sharing merges correctly at the home.
//   - Release (unlock, barrier entry) flushes dirty spans to the homes;
//     acquire (lock, barrier exit) invalidates all cached non-home pages.
//     This is a conservative eager-release-consistency variant: correct
//     for data-race-free programs, simple enough for firmware-adjacent
//     layers, and it reproduces the communication structure the paper's
//     execution-time breakdowns measure.
//   - Locks live on home nodes (lock i homes on node i mod N) with FIFO
//     queues; barriers use a centralized manager on node 0.
//
// Each worker accumulates the paper's four execution-time buckets:
// Compute+Handler, Data (page fetches and diff flushes), Lock, Barrier.
package svm

import (
	"fmt"
	"time"

	"sanft/internal/core"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/vmmc"
)

// PageSize is the SVM page granularity (matches the NIC MTU).
const PageSize = 4096

// Config sizes an SVM system.
type Config struct {
	// HeapBytes is the shared address space size (rounded up to pages).
	HeapBytes int
	// ProcsPerNode is the number of worker processes per node (the
	// paper's nodes are 2-way SMPs).
	ProcsPerNode int
	// NumLocks is the number of lock variables.
	NumLocks int
}

// Breakdown is the Figure 9 execution-time decomposition for one worker.
type Breakdown struct {
	Compute time.Duration // includes handler time, as in the paper
	Data    time.Duration
	Lock    time.Duration
	Barrier time.Duration
}

// Total returns the sum of all buckets.
func (b Breakdown) Total() time.Duration {
	return b.Compute + b.Data + b.Lock + b.Barrier
}

// Add accumulates another breakdown.
func (b *Breakdown) Add(o Breakdown) {
	b.Compute += o.Compute
	b.Data += o.Data
	b.Lock += o.Lock
	b.Barrier += o.Barrier
}

// System is one SVM instance spanning a cluster.
type System struct {
	c     *core.Cluster
	cfg   Config
	hosts []topology.NodeID
	nodes []*node
	P     int // total workers

	numPages int
	epoch    int
}

// node is the per-host SVM state: the page cache shared by the node's
// workers, plus its daemon-side home storage.
type node struct {
	sys  *System
	idx  int
	host topology.NodeID
	ep   *vmmc.Endpoint

	cache    []byte // full address-space image; valid[] gates non-home use
	valid    []bool
	dirty    []spanSet // per page
	anyDirty []int     // page indices with dirty spans
	// homeTouched records writes to pages homed on this node: they need
	// no diff message (the cache is the home storage), but they must
	// still appear in release write notices so remote acquirers
	// invalidate their cached copies.
	homeTouched map[int]bool

	// fetching gates concurrent fetches of the same page by node-mates:
	// the first worker fetches, the others wait on the page's gate.
	fetching map[int]*sim.Gate

	daemon *daemon
}

// New builds an SVM system across the given hosts of a cluster. Call
// Start before spawning workers.
func New(c *core.Cluster, hosts []topology.NodeID, cfg Config) *System {
	if cfg.ProcsPerNode < 1 {
		cfg.ProcsPerNode = 1
	}
	if cfg.NumLocks < 1 {
		cfg.NumLocks = 1
	}
	numPages := (cfg.HeapBytes + PageSize - 1) / PageSize
	if numPages < 1 {
		numPages = 1
	}
	s := &System{
		c:        c,
		cfg:      cfg,
		hosts:    hosts,
		P:        len(hosts) * cfg.ProcsPerNode,
		numPages: numPages,
	}
	for i, h := range hosts {
		n := &node{
			sys:         s,
			idx:         i,
			host:        h,
			ep:          c.Endpoint(h),
			cache:       make([]byte, numPages*PageSize),
			valid:       make([]bool, numPages),
			dirty:       make([]spanSet, numPages),
			fetching:    make(map[int]*sim.Gate),
			homeTouched: make(map[int]bool),
		}
		// Home pages are always valid locally.
		for pg := 0; pg < numPages; pg++ {
			if s.homeOf(pg) == i {
				n.valid[pg] = true
			}
		}
		s.nodes = append(s.nodes, n)
	}
	for _, n := range s.nodes {
		n.daemon = newDaemon(n)
	}
	return s
}

// Size returns the usable shared space in bytes.
func (s *System) Size() int { return s.numPages * PageSize }

// Workers returns the total worker count P.
func (s *System) Workers() int { return s.P }

// Nodes returns the node count.
func (s *System) Nodes() int { return len(s.hosts) }

// homeOf returns the node index homing page pg (round-robin).
func (s *System) homeOf(pg int) int { return pg % len(s.hosts) }

// Start launches the per-node daemons. Must be called once, before
// workers run.
func (s *System) Start() {
	for _, n := range s.nodes {
		n.daemon.start()
	}
}

// SpawnWorkers starts P worker processes running body. Returns a slice
// that is filled with each worker's breakdown as it finishes; the caller
// should run the cluster until Done reports true.
func (s *System) SpawnWorkers(body func(w *Worker)) *Run {
	run := &Run{sys: s, Breakdowns: make([]Breakdown, s.P)}
	for id := 0; id < s.P; id++ {
		id := id
		n := s.nodes[id/s.cfg.ProcsPerNode]
		s.c.K.Spawn(fmt.Sprintf("svm-w%d", id), func(p *sim.Proc) {
			w := &Worker{p: p, sys: s, node: n, ID: id}
			run.Started = s.c.Now()
			body(w)
			run.Breakdowns[id] = w.Times
			run.finished++
			if run.finished == s.P {
				run.Finished = s.c.Now()
				run.done = true
			}
		})
	}
	return run
}

// Run tracks a worker fleet.
type Run struct {
	sys        *System
	Breakdowns []Breakdown
	Started    sim.Time
	Finished   sim.Time
	finished   int
	done       bool
}

// Done reports whether every worker has returned.
func (r *Run) Done() bool { return r.done }

// Elapsed returns the parallel execution time (first start to last
// finish).
func (r *Run) Elapsed() time.Duration { return r.Finished.Sub(r.Started) }

// MaxBreakdown returns the per-bucket maximum across workers — the
// "critical path" view used for Figure 9-style bars.
func (r *Run) MaxBreakdown() Breakdown {
	var out Breakdown
	for _, b := range r.Breakdowns {
		if b.Compute > out.Compute {
			out.Compute = b.Compute
		}
		if b.Data > out.Data {
			out.Data = b.Data
		}
		if b.Lock > out.Lock {
			out.Lock = b.Lock
		}
		if b.Barrier > out.Barrier {
			out.Barrier = b.Barrier
		}
	}
	return out
}

// MeanBreakdown returns the per-bucket mean across workers.
func (r *Run) MeanBreakdown() Breakdown {
	var sum Breakdown
	for _, b := range r.Breakdowns {
		sum.Add(b)
	}
	n := time.Duration(len(r.Breakdowns))
	if n == 0 {
		return Breakdown{}
	}
	return Breakdown{Compute: sum.Compute / n, Data: sum.Data / n, Lock: sum.Lock / n, Barrier: sum.Barrier / n}
}
