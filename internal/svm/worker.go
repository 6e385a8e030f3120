package svm

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"sanft/internal/sim"
	"sanft/internal/vmmc"
)

func bitsToF(u uint64) float64 { return math.Float64frombits(u) }
func fToBits(f float64) uint64 { return math.Float64bits(f) }

// Worker is one application process's view of the shared space. Workers
// on the same node share its page cache; each worker tracks its own time
// breakdown. A Worker is bound to its sim.Proc and must only be used from
// that process.
type Worker struct {
	p    *sim.Proc
	sys  *System
	node *node
	ID   int

	Times Breakdown

	replyExp *vmmc.Export
	pageExp  *vmmc.Export
	ctlImps  map[int]*vmmc.Import // per home-node control imports
	diffImps map[int]*vmmc.Import

	localGate sim.Gate // for locally granted locks/barriers
	granted   bool
}

func (w *Worker) lazyInit() {
	if w.replyExp != nil {
		return
	}
	w.replyExp = w.node.ep.Export(fmt.Sprintf("svm-reply-%d", w.ID), ctlSlot)
	w.pageExp = w.node.ep.Export(fmt.Sprintf("svm-page-%d", w.ID), PageSize)
	w.ctlImps = make(map[int]*vmmc.Import)
	w.diffImps = make(map[int]*vmmc.Import)
}

func (w *Worker) ctlImp(home int) *vmmc.Import {
	imp := w.ctlImps[home]
	if imp == nil {
		var err error
		imp, err = w.node.ep.Import(w.sys.nodes[home].host, "svm-ctl")
		if err != nil {
			panic(err)
		}
		w.ctlImps[home] = imp
	}
	return imp
}

func (w *Worker) diffImp(home int) *vmmc.Import {
	imp := w.diffImps[home]
	if imp == nil {
		var err error
		imp, err = w.node.ep.Import(w.sys.nodes[home].host, "svm-diff")
		if err != nil {
			panic(err)
		}
		w.diffImps[home] = imp
	}
	return imp
}

// request sends a control request to a remote home daemon and waits for
// the reply, returning any page-notice list the reply carries (lock
// grants). extra, when non-nil, is a page-ID list attached to the request
// (unlock write notices).
func (w *Worker) request(home int, op byte, arg int, extra []uint32) []uint32 {
	w.lazyInit()
	buf := make([]byte, 16+len(extra)*4)
	buf[0] = op
	binary.LittleEndian.PutUint32(buf[4:], uint32(arg))
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(extra)))
	for i, pg := range extra {
		binary.LittleEndian.PutUint32(buf[16+i*4:], pg)
	}
	w.ctlImp(home).Send(w.p, w.ID*ctlSlot, buf, true)
	w.replyExp.WaitNotification(w.p)
	rep := w.replyExp.Mem
	nn := int(binary.LittleEndian.Uint32(rep[8:]))
	if nn == 0 {
		return nil
	}
	out := make([]uint32, nn)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(rep[16+i*4:])
	}
	return out
}

// waitLocal blocks until a locally queued grant fires.
func (w *Worker) waitLocal() {
	for !w.granted {
		w.localGate.Wait(w.p)
	}
	w.granted = false
}

func (w *Worker) grantLocal() {
	w.granted = true
	w.localGate.Signal()
}

// Compute models computation: it advances the worker's virtual time by d
// and charges the Compute bucket. Real data manipulation by the caller is
// free (host CPUs are not the simulated bottleneck; their cost is what d
// encodes).
func (w *Worker) Compute(d time.Duration) {
	w.p.Sleep(d)
	w.Times.Compute += d
}

// ---------------------------------------------------------------------------
// Shared-memory access
// ---------------------------------------------------------------------------

// ensureValid fetches any invalid pages covering [off, off+n).
func (w *Worker) ensureValid(off, n int) {
	if n <= 0 {
		return
	}
	if off < 0 || off+n > w.sys.Size() {
		panic(fmt.Sprintf("svm: access [%d,%d) outside %d-byte space", off, off+n, w.sys.Size()))
	}
	first, last := off/PageSize, (off+n-1)/PageSize
	for pg := first; pg <= last; pg++ {
		if w.node.valid[pg] {
			continue
		}
		t0 := w.p.Now()
		w.fetchPage(pg)
		w.Times.Data += w.p.Now().Sub(t0)
	}
}

// fetchPage pulls page pg from its home into the node cache. Node-mates
// requesting the same page wait for the first fetch instead of issuing
// their own.
func (w *Worker) fetchPage(pg int) {
	w.lazyInit()
	home := w.sys.homeOf(pg)
	if home == w.node.idx {
		w.node.valid[pg] = true
		return
	}
	for {
		g, inProgress := w.node.fetching[pg]
		if !inProgress {
			break
		}
		g.Wait(w.p)
		if w.node.valid[pg] {
			return
		}
	}
	// Another worker on this node may have fetched it while we slept.
	if w.node.valid[pg] {
		return
	}
	gate := &sim.Gate{}
	w.node.fetching[pg] = gate
	defer func() {
		delete(w.node.fetching, pg)
		gate.Broadcast()
	}()
	buf := make([]byte, 8)
	buf[0] = opPageReq
	binary.LittleEndian.PutUint32(buf[4:], uint32(pg))
	w.ctlImp(home).Send(w.p, w.ID*ctlSlot, buf, true)
	w.pageExp.WaitNotification(w.p)
	// Deposit arrived into our page buffer; install it unless a dirty
	// local span must survive (merge: keep dirty bytes, take remote for
	// the rest).
	base := pg * PageSize
	if w.node.dirty[pg].empty() {
		copy(w.node.cache[base:base+PageSize], w.pageExp.Mem)
	} else {
		tmp := make([]byte, PageSize)
		copy(tmp, w.pageExp.Mem)
		for _, sp := range w.node.dirty[pg].spans {
			copy(tmp[sp.off:sp.end], w.node.cache[base+sp.off:base+sp.end])
		}
		copy(w.node.cache[base:base+PageSize], tmp)
	}
	w.node.valid[pg] = true
}

// Read returns a copy of n shared bytes at off, fetching pages as needed.
func (w *Worker) Read(off, n int) []byte {
	w.ensureValid(off, n)
	out := make([]byte, n)
	copy(out, w.node.cache[off:off+n])
	return out
}

// View returns a read-only view of the shared bytes (no copy). The view
// is invalidated by the next synchronization operation.
func (w *Worker) View(off, n int) []byte {
	w.ensureValid(off, n)
	return w.node.cache[off : off+n]
}

// Write stores data at off and records the dirty spans for the next
// release.
func (w *Worker) Write(off int, data []byte) {
	n := len(data)
	if n == 0 {
		return
	}
	w.ensureValid(off, n)
	copy(w.node.cache[off:off+n], data)
	for pg := off / PageSize; pg <= (off+n-1)/PageSize; pg++ {
		base := pg * PageSize
		s := maxi(off, base)
		e := mini(off+n, base+PageSize)
		if w.sys.homeOf(pg) == w.node.idx {
			// Home writes are immediately authoritative (no diff), but
			// must still be advertised in release write notices.
			w.node.homeTouched[pg] = true
			continue
		}
		if w.node.dirty[pg].empty() {
			w.node.anyDirty = append(w.node.anyDirty, pg)
		}
		w.node.dirty[pg].add(s-base, e-s)
	}
}

// Float64 reads one shared float64.
func (w *Worker) Float64(off int) float64 {
	b := w.View(off, 8)
	return bitsToF(binary.LittleEndian.Uint64(b))
}

// SetFloat64 writes one shared float64.
func (w *Worker) SetFloat64(off int, v float64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], fToBits(v))
	w.Write(off, b[:])
}

// Uint32 reads one shared uint32.
func (w *Worker) Uint32(off int) uint32 {
	return binary.LittleEndian.Uint32(w.View(off, 4))
}

// SetUint32 writes one shared uint32.
func (w *Worker) SetUint32(off int, v uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	w.Write(off, b[:])
}

// ReadFloat64s decodes n shared float64s starting at off.
func (w *Worker) ReadFloat64s(off, n int) []float64 {
	b := w.View(off, n*8)
	out := make([]float64, n)
	for i := range out {
		out[i] = bitsToF(binary.LittleEndian.Uint64(b[i*8:]))
	}
	return out
}

// WriteFloat64s encodes vs into shared memory at off.
func (w *Worker) WriteFloat64s(off int, vs []float64) {
	b := make([]byte, len(vs)*8)
	for i, v := range vs {
		binary.LittleEndian.PutUint64(b[i*8:], fToBits(v))
	}
	w.Write(off, b)
}

// ---------------------------------------------------------------------------
// Synchronization
// ---------------------------------------------------------------------------

// flushDiffs pushes every dirty span to its home (release action) and
// clears dirty state. Charged to the Data bucket. Returns the flushed
// page IDs — the write notices a release publishes.
func (w *Worker) flushDiffs() []uint32 {
	var flushed []uint32
	if len(w.node.homeTouched) > 0 {
		for pg := range w.node.homeTouched {
			flushed = append(flushed, uint32(pg))
		}
		sort.Slice(flushed, func(i, j int) bool { return flushed[i] < flushed[j] })
		w.node.homeTouched = make(map[int]bool)
	}
	if len(w.node.anyDirty) == 0 {
		return flushed
	}
	w.lazyInit()
	t0 := w.p.Now()
	pages := w.node.anyDirty
	w.node.anyDirty = nil
	for _, pg := range pages {
		ds := &w.node.dirty[pg]
		if ds.empty() {
			continue
		}
		home := w.sys.homeOf(pg)
		base := pg * PageSize
		flushed = append(flushed, uint32(pg))
		if home == w.node.idx {
			ds.reset()
			continue
		}
		msg := encodeDiff(pg, ds, w.node.cache[base:base+PageSize])
		ds.reset()
		w.diffImp(home).Send(w.p, w.ID*diffSlot, msg, true)
		w.replyExp.WaitNotification(w.p) // diff ack
	}
	w.Times.Data += w.p.Now().Sub(t0)
	return flushed
}

// encodeDiff serializes a page's dirty spans (whole page if too many).
func encodeDiff(pg int, ds *spanSet, page []byte) []byte {
	if len(ds.spans) > maxSpans {
		msg := make([]byte, 8+PageSize)
		binary.LittleEndian.PutUint32(msg[0:], uint32(pg))
		binary.LittleEndian.PutUint32(msg[4:], 0)
		copy(msg[8:], page)
		return msg
	}
	total := ds.bytes()
	msg := make([]byte, 8+len(ds.spans)*4+total)
	binary.LittleEndian.PutUint32(msg[0:], uint32(pg))
	binary.LittleEndian.PutUint32(msg[4:], uint32(len(ds.spans)))
	off := 8
	dataOff := 8 + len(ds.spans)*4
	for _, sp := range ds.spans {
		binary.LittleEndian.PutUint16(msg[off:], uint16(sp.off))
		binary.LittleEndian.PutUint16(msg[off+2:], uint16(sp.end-sp.off))
		copy(msg[dataOff:], page[sp.off:sp.end])
		off += 4
		dataOff += sp.end - sp.off
	}
	return msg
}

// invalidate drops every cached non-home page (barrier acquire).
func (w *Worker) invalidate() {
	for pg := 0; pg < w.sys.numPages; pg++ {
		if w.sys.homeOf(pg) != w.node.idx {
			w.node.valid[pg] = false
		}
	}
}

// invalidateNotices drops only the pages named by a lock grant's write
// notices (wildcard falls back to a full invalidation).
func (w *Worker) invalidateNotices(pages []uint32) {
	for _, pg := range pages {
		if pg == noticeWildcard {
			w.invalidate()
			return
		}
		if int(pg) < w.sys.numPages && w.sys.homeOf(int(pg)) != w.node.idx {
			w.node.valid[pg] = false
		}
	}
}

// Lock acquires global lock id (FIFO at its home node). Entering the
// critical section invalidates the pages named by the lock's accumulated
// write notices (GeNIMA-style), so the holder sees the previous holders'
// writes without discarding its whole cache.
func (w *Worker) Lock(id int) {
	home := id % w.sys.Nodes()
	w.flushDiffs()
	t0 := w.p.Now()
	var notices []uint32
	if home == w.node.idx {
		w.node.daemon.lockRequest(id, w.grantLocal)
		w.waitLocal()
		notices = w.node.daemon.noticesFor(id)
	} else {
		notices = w.request(home, opLock, id, nil)
	}
	w.Times.Lock += w.p.Now().Sub(t0)
	w.invalidateNotices(notices)
}

// Unlock releases global lock id after flushing the critical section's
// writes to their homes; the flushed page list becomes the lock's write
// notices for subsequent acquirers.
func (w *Worker) Unlock(id int) {
	home := id % w.sys.Nodes()
	flushed := w.flushDiffs()
	if len(flushed) > maxNotices {
		flushed = []uint32{noticeWildcard}
	}
	t0 := w.p.Now()
	if home == w.node.idx {
		w.node.daemon.addNotices(id, flushed)
		w.node.daemon.unlockRequest(id)
	} else {
		w.request(home, opUnlock, id, flushed)
	}
	w.Times.Lock += w.p.Now().Sub(t0)
}

// Barrier synchronizes all P workers: flush, arrive at the manager,
// wait for release, invalidate.
func (w *Worker) Barrier() {
	w.flushDiffs()
	t0 := w.p.Now()
	mgr := w.sys.nodes[0].daemon
	if w.node.idx == 0 {
		mgr.barrierArrive(w.grantLocal)
		w.waitLocal()
	} else {
		w.request(0, opBarrier, w.sys.epoch, nil)
	}
	w.Times.Barrier += w.p.Now().Sub(t0)
	w.invalidate()
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func mini(a, b int) int {
	if a < b {
		return a
	}
	return b
}
