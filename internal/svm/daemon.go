package svm

import (
	"encoding/binary"
	"fmt"
	"sort"

	"sanft/internal/sim"
	"sanft/internal/vmmc"
)

// Control-message opcodes (64-byte request slots, one per worker, in each
// node's exported control buffer).
const (
	opPageReq = iota + 1
	opLock
	opUnlock
	opBarrier
)

const (
	ctlSlot  = 512
	diffSlot = PageSize + 1088 // header + up to 256 spans + full page
	maxSpans = 256
	// maxNotices bounds the page-ID lists carried in unlock requests and
	// lock-grant replies; larger sets degrade to a wildcard (invalidate
	// everything), keeping correctness.
	maxNotices = (ctlSlot - 16) / 4
	// noticeWildcard marks an overflowing notice set.
	noticeWildcard = 0xffffffff
)

// daemon is the per-node protocol engine. Local workers call its methods
// directly (SMP shared memory); remote workers reach it through VMMC
// messages serviced by two service processes (control and diff channels).
type daemon struct {
	n   *node
	sys *System

	ctlExp  *vmmc.Export
	diffExp *vmmc.Export

	// Lock state for locks homed here.
	lockHeld  map[int]bool
	lockQueue map[int][]func()
	// lockNotices accumulates, per lock, the pages flushed by releases of
	// that lock (GeNIMA-style write notices): an acquirer invalidates
	// only these pages instead of its whole cache. nil means wildcard
	// (overflowed).
	lockNotices map[int]map[uint32]bool

	// Barrier state (only used on node 0).
	barrierCount int
	barrierWait  []func()

	// Lazily created imports of worker reply/page buffers.
	replyImp map[int]*vmmc.Import
	pageImp  map[int]*vmmc.Import
}

func newDaemon(n *node) *daemon {
	d := &daemon{
		n:           n,
		sys:         n.sys,
		lockHeld:    make(map[int]bool),
		lockQueue:   make(map[int][]func()),
		lockNotices: make(map[int]map[uint32]bool),
		replyImp:    make(map[int]*vmmc.Import),
		pageImp:     make(map[int]*vmmc.Import),
	}
	d.ctlExp = n.ep.Export("svm-ctl", n.sys.P*ctlSlot)
	d.diffExp = n.ep.Export("svm-diff", n.sys.P*diffSlot)
	return d
}

// start launches the two service processes.
func (d *daemon) start() {
	d.sys.c.K.Spawn(fmt.Sprintf("svm-ctl-%d", d.n.idx), d.ctlLoop)
	d.sys.c.K.Spawn(fmt.Sprintf("svm-diff-%d", d.n.idx), d.diffLoop)
}

// replyTo sends a control reply to worker wid; notices, when non-nil,
// carries the page IDs the acquirer must invalidate (lock grants).
func (d *daemon) replyTo(p *sim.Proc, wid int, op byte, arg uint32, notices []uint32) {
	imp := d.replyImp[wid]
	if imp == nil {
		node := d.sys.nodes[wid/d.sys.cfg.ProcsPerNode]
		var err error
		imp, err = d.n.ep.Import(node.host, fmt.Sprintf("svm-reply-%d", wid))
		if err != nil {
			panic(err)
		}
		d.replyImp[wid] = imp
	}
	buf := make([]byte, 16+len(notices)*4)
	buf[0] = op
	binary.LittleEndian.PutUint32(buf[4:], arg)
	binary.LittleEndian.PutUint32(buf[8:], uint32(len(notices)))
	for i, pg := range notices {
		binary.LittleEndian.PutUint32(buf[16+i*4:], pg)
	}
	imp.Send(p, 0, buf, true)
}

// noticesFor renders the accumulated write-notice set of a lock for a
// grant reply: a sorted page list, or the wildcard when overflowed.
func (d *daemon) noticesFor(lock int) []uint32 {
	set, tracked := d.lockNotices[lock]
	if tracked && set == nil {
		return []uint32{noticeWildcard}
	}
	out := make([]uint32, 0, len(set))
	for pg := range set {
		out = append(out, pg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// addNotices folds an unlock's flushed-page list into the lock's set.
func (d *daemon) addNotices(lock int, pages []uint32) {
	set, tracked := d.lockNotices[lock]
	if tracked && set == nil {
		return // already wildcard
	}
	if !tracked {
		set = make(map[uint32]bool)
		d.lockNotices[lock] = set
	}
	for _, pg := range pages {
		if pg == noticeWildcard {
			d.lockNotices[lock] = nil
			return
		}
		set[pg] = true
	}
	if len(set) > maxNotices {
		d.lockNotices[lock] = nil
	}
}

// sendPage ships the current home copy of page pg to worker wid's page
// buffer.
func (d *daemon) sendPage(p *sim.Proc, wid, pg int) {
	imp := d.pageImp[wid]
	if imp == nil {
		node := d.sys.nodes[wid/d.sys.cfg.ProcsPerNode]
		var err error
		imp, err = d.n.ep.Import(node.host, fmt.Sprintf("svm-page-%d", wid))
		if err != nil {
			panic(err)
		}
		d.pageImp[wid] = imp
	}
	data := make([]byte, PageSize)
	copy(data, d.n.cache[pg*PageSize:(pg+1)*PageSize])
	imp.Send(p, 0, data, true)
}

// ctlLoop services control requests from remote workers.
func (d *daemon) ctlLoop(p *sim.Proc) {
	for {
		note := d.ctlExp.Notify.Get(p)
		wid := note.Offset / ctlSlot
		slot := d.ctlExp.Mem[wid*ctlSlot : (wid+1)*ctlSlot]
		op := slot[0]
		arg := int(binary.LittleEndian.Uint32(slot[4:]))
		switch op {
		case opPageReq:
			d.sendPage(p, wid, arg)
		case opLock:
			d.lockRequest(arg, func() {
				notices := d.noticesFor(arg)
				d.sys.c.K.Spawn(fmt.Sprintf("svm-grant-%d-%d", d.n.idx, wid), func(gp *sim.Proc) {
					d.replyTo(gp, wid, opLock, uint32(arg), notices)
				})
			})
		case opUnlock:
			nn := int(binary.LittleEndian.Uint32(slot[8:]))
			pages := make([]uint32, nn)
			for i := 0; i < nn; i++ {
				pages[i] = binary.LittleEndian.Uint32(slot[16+i*4:])
			}
			d.addNotices(arg, pages)
			d.unlockRequest(arg)
			d.replyTo(p, wid, opUnlock, uint32(arg), nil)
		case opBarrier:
			d.barrierArrive(func() {
				d.sys.c.K.Spawn(fmt.Sprintf("svm-release-%d-%d", d.n.idx, wid), func(gp *sim.Proc) {
					d.replyTo(gp, wid, opBarrier, uint32(arg), nil)
				})
			})
		}
	}
}

// diffLoop services diff-flush messages from remote workers.
func (d *daemon) diffLoop(p *sim.Proc) {
	for {
		note := d.diffExp.Notify.Get(p)
		wid := note.Offset / diffSlot
		slot := d.diffExp.Mem[wid*diffSlot : (wid+1)*diffSlot]
		d.applyDiff(slot)
		d.replyTo(p, wid, opPageReq, 0, nil) // diff ack
	}
}

// applyDiff merges a diff message into the home copy.
func (d *daemon) applyDiff(msg []byte) {
	pg := int(binary.LittleEndian.Uint32(msg[0:]))
	count := int(binary.LittleEndian.Uint32(msg[4:]))
	base := pg * PageSize
	if count == 0 {
		// Whole-page fallback.
		copy(d.n.cache[base:base+PageSize], msg[8:8+PageSize])
		return
	}
	off := 8
	dataOff := 8 + count*4
	for i := 0; i < count; i++ {
		so := int(binary.LittleEndian.Uint16(msg[off:]))
		sl := int(binary.LittleEndian.Uint16(msg[off+2:]))
		copy(d.n.cache[base+so:base+so+sl], msg[dataOff:dataOff+sl])
		off += 4
		dataOff += sl
	}
}

// lockRequest grants the lock now or queues the grant (FIFO). Callable
// locally and from the control loop.
func (d *daemon) lockRequest(lock int, grant func()) {
	if !d.lockHeld[lock] {
		d.lockHeld[lock] = true
		grant()
		return
	}
	d.lockQueue[lock] = append(d.lockQueue[lock], grant)
}

// unlockRequest releases the lock and grants the next waiter.
func (d *daemon) unlockRequest(lock int) {
	q := d.lockQueue[lock]
	if len(q) > 0 {
		next := q[0]
		d.lockQueue[lock] = q[1:]
		next() // lock stays held, ownership transfers
		return
	}
	d.lockHeld[lock] = false
}

// barrierArrive counts arrivals (node 0 only); the P-th arrival releases
// everyone.
func (d *daemon) barrierArrive(release func()) {
	d.barrierWait = append(d.barrierWait, release)
	d.barrierCount++
	if d.barrierCount == d.sys.P {
		waiters := d.barrierWait
		d.barrierWait = nil
		d.barrierCount = 0
		d.sys.epoch++
		for _, r := range waiters {
			r()
		}
	}
}
