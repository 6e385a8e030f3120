// Package vmmc implements Virtual Memory-Mapped Communication, the
// user-level communication layer of the paper's platform (§3.2).
//
// The model follows the original semantics: a receiving process EXPORTS
// regions of its address space (with permissions restricting who may
// import them); a sender IMPORTS a remote buffer and then deposits data
// directly into the remote memory — no receiver CPU involvement, no
// receive() call, optional completion notifications. Messages of at most
// 32 bytes go to the NIC by programmed I/O, larger ones by DMA, and
// messages above 4 KB are segmented into chunks by the firmware.
//
// Reliability interaction: with the retransmission protocol enabled the
// layer sees exactly-once, in-order chunks per sending PROCESS in steady
// state, and at-least-once chunks across a permanent-failure remap (a
// generation reset renumbers delivered-but-unacknowledged packets).
// Deposits are idempotent writes into exported memory, so redelivery is
// harmless at the data level. Completion notifications are deduplicated
// exactly: message IDs are assigned per destination node, and the receiver
// tracks a gap-filling completion window per source (messages from
// different processes sharing one NIC can complete out of ID order — a
// small PIO send overtakes a large DMA send still crossing the PCI bus).
package vmmc

import (
	"fmt"
	"time"

	"sanft/internal/nic"
	"sanft/internal/proto"
	"sanft/internal/sim"
	"sanft/internal/stats"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// Notification reports a completed message arrival to the exporting
// process.
type Notification struct {
	Src    topology.NodeID
	MsgID  uint64
	BufID  int
	Offset int // where in the exported buffer the message starts
	Len    int
	// Latency is end-to-end: first chunk's host start to last chunk's
	// host deposit.
	Latency time.Duration
	// Breakdown is the five-stage decomposition of the first chunk.
	Breakdown stats.Breakdown
}

// Export is a region of host memory opened for remote deposits.
type Export struct {
	ID   int
	Name string
	Mem  []byte
	// allowed restricts importers; nil means any node may import.
	allowed map[topology.NodeID]bool
	// Notify receives a Notification per completed message that asked
	// for one.
	Notify sim.Mailbox[Notification]
}

// Import is a sender-side handle to a remote exported buffer.
type Import struct {
	ep     *Endpoint
	Remote topology.NodeID
	BufID  int
	Size   int
	// next is the endpoint's message counter for Remote, shared by every
	// import of a buffer on that node.
	next *uint64
}

// Directory is the name service mapping (node, buffer name) to exports —
// the connection-setup plumbing, outside the measured data path.
type Directory struct {
	eps map[topology.NodeID]*Endpoint
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{eps: make(map[topology.NodeID]*Endpoint)}
}

// source is what an endpoint keeps for one sending node: the completion
// window of its messages and the messages of several chunks still being
// reassembled, held as values in no particular order (there are few at a
// time, about one per sending process on that node).
type source struct {
	done    completionWindow
	partial []partialMsg
}

// partialMsg is a message of several chunks not yet fully received.
type partialMsg struct {
	id       uint64
	received int
	first    proto.Stamps
}

// Endpoint is one process's VMMC instance, bound to its host's NIC.
type Endpoint struct {
	k    *sim.Kernel
	n    *nic.NIC
	dir  *Directory
	node topology.NodeID
	// frames is the frame list of the kernel's cell, which every chunk
	// sent is drawn from.
	frames proto.Frames

	exports []*Export // by BufID, which numbers exports densely from 0
	byName  map[string]*Export
	// nextMsgID numbers messages per destination node, so receivers see
	// (eventually) dense ID sequences per source. Import hands each
	// handle its destination's counter, so Send does no lookup.
	nextMsgID map[topology.NodeID]*uint64

	// sources holds the reassembly state of each sending node, indexed
	// by node ID (nil: nothing received from it yet).
	sources []*source

	// Counters.
	RejectedDeposits uint64
	DupNotifications uint64
}

// NewEndpoint creates the endpoint for a host and wires it to the NIC's
// delivery upcall.
func NewEndpoint(k *sim.Kernel, n *nic.NIC, dir *Directory) *Endpoint {
	ep := &Endpoint{
		k:         k,
		n:         n,
		dir:       dir,
		node:      n.Node(),
		frames:    proto.FramesOf(k),
		byName:    make(map[string]*Export),
		nextMsgID: make(map[topology.NodeID]*uint64),
	}
	n.SetOnDeliver(ep.onDeliver)
	dir.eps[ep.node] = ep
	return ep
}

// Node returns the host this endpoint runs on.
func (ep *Endpoint) Node() topology.NodeID { return ep.node }

// NIC returns the underlying NIC.
func (ep *Endpoint) NIC() *nic.NIC { return ep.n }

// Export opens a buffer of the given size for remote deposits. If allowed
// is non-empty, only those nodes may import it.
func (ep *Endpoint) Export(name string, size int, allowed ...topology.NodeID) *Export {
	if _, dup := ep.byName[name]; dup {
		panic(fmt.Sprintf("vmmc: duplicate export %q", name))
	}
	e := &Export{ID: len(ep.exports), Name: name, Mem: make([]byte, size)}
	if len(allowed) > 0 {
		e.allowed = make(map[topology.NodeID]bool, len(allowed))
		for _, a := range allowed {
			e.allowed[a] = true
		}
	}
	ep.exports = append(ep.exports, e)
	ep.byName[name] = e
	return e
}

// Import obtains a send handle for a buffer exported by a remote node.
// Connection setup is modeled as a directory lookup (it is outside the
// data path the paper measures); permissions are enforced here and again
// at deposit time.
func (ep *Endpoint) Import(remote topology.NodeID, name string) (*Import, error) {
	rep, ok := ep.dir.eps[remote]
	if !ok {
		return nil, fmt.Errorf("vmmc: no endpoint on node %d", remote)
	}
	e, ok := rep.byName[name]
	if !ok {
		return nil, fmt.Errorf("vmmc: node %d exports no buffer %q", remote, name)
	}
	if e.allowed != nil && !e.allowed[ep.node] {
		return nil, fmt.Errorf("vmmc: node %d may not import %q from node %d", ep.node, name, remote)
	}
	next := ep.nextMsgID[remote]
	if next == nil {
		next = new(uint64)
		ep.nextMsgID[remote] = next
	}
	return &Import{ep: ep, Remote: remote, BufID: e.ID, Size: len(e.Mem), next: next}, nil
}

// Send deposits data into the imported remote buffer at the given offset,
// segmenting into MTU-sized chunks. It blocks (in virtual time) only for
// send-buffer availability and the host-side per-chunk cost; delivery is
// asynchronous. If notify is true the remote endpoint posts a Notification
// when the whole message has arrived. Returns the message ID.
func (imp *Import) Send(p *sim.Proc, offset int, data []byte, notify bool) uint64 {
	ep := imp.ep
	if offset < 0 || offset+len(data) > imp.Size {
		panic(fmt.Sprintf("vmmc: deposit [%d,%d) outside buffer of %d bytes", offset, offset+len(data), imp.Size))
	}
	*imp.next++
	msgID := *imp.next
	ep.n.EmitEvent(trace.EvHostSend, imp.Remote, msgID)
	mtu := ep.n.Cost().MTU
	start := p.Now()
	if len(data) == 0 {
		// Zero-length messages still notify (used as pure signals).
		data = nil
	}
	sent := 0
	for {
		chunkLen := len(data) - sent
		if chunkLen > mtu {
			chunkLen = mtu
		}
		frame := ep.frames.NewData(imp.Remote, proto.DataPayload{
			BufID:     imp.BufID,
			MsgID:     msgID,
			MsgLen:    len(data),
			BufOffset: offset + sent,
			MsgOffset: sent,
			Data:      data[sent : sent+chunkLen],
			Notify:    notify,
		})
		frame.Stamps.HostStart = start
		ep.n.Send(p, frame)
		sent += chunkLen
		if sent >= len(data) {
			break
		}
	}
	return msgID
}

// onDeliver handles an accepted data frame from the NIC: deposit the chunk
// into the exported buffer and track message completion.
func (ep *Endpoint) onDeliver(f *proto.Frame) {
	d := f.Data
	if d.BufID < 0 || d.BufID >= len(ep.exports) {
		ep.RejectedDeposits++
		return
	}
	e := ep.exports[d.BufID]
	if e.allowed != nil && !e.allowed[f.Src] {
		ep.RejectedDeposits++
		return
	}
	if d.BufOffset < 0 || d.BufOffset+len(d.Data) > len(e.Mem) {
		ep.RejectedDeposits++
		return
	}
	copy(e.Mem[d.BufOffset:], d.Data)

	src := ep.source(f.Src)
	if src.done.done(d.MsgID) {
		// Redelivered chunk of an already-completed message (possible
		// across a generation reset): the write above is idempotent;
		// suppress tracking and notification.
		ep.DupNotifications++
		return
	}
	i := 0
	for i < len(src.partial) && src.partial[i].id != d.MsgID {
		i++
	}
	if i == len(src.partial) {
		if len(d.Data) >= d.MsgLen {
			// A chunk that carries the whole message (every message of
			// at most one MTU) completes it without a partial record.
			ep.complete(e, &src.done, f, f.Stamps)
			return
		}
		src.partial = append(src.partial, partialMsg{id: d.MsgID})
	}
	pm := &src.partial[i]
	if d.MsgOffset == 0 {
		pm.first = f.Stamps
	}
	pm.received += len(d.Data)
	if pm.received < d.MsgLen {
		return
	}
	first := pm.first
	last := len(src.partial) - 1
	src.partial[i] = src.partial[last]
	src.partial[last] = partialMsg{}
	src.partial = src.partial[:last]
	if d.MsgLen == 0 || first.HostStart == 0 {
		first = f.Stamps
	}
	ep.complete(e, &src.done, f, first)
}

// source returns the reassembly state of sending node id, made on its
// first chunk.
func (ep *Endpoint) source(id topology.NodeID) *source {
	if grow := int(id) + 1 - len(ep.sources); grow > 0 {
		ep.sources = append(ep.sources, make([]*source, grow)...)
	}
	s := ep.sources[id]
	if s == nil {
		s = &source{}
		ep.sources[id] = s
	}
	return s
}

// complete records the message of f's chunk as complete and, if it asked
// for one, posts its notification. first holds the stamps of the message's
// first chunk.
func (ep *Endpoint) complete(e *Export, cw *completionWindow, f *proto.Frame, first proto.Stamps) {
	d := f.Data
	cw.mark(d.MsgID)
	ep.n.EmitEvent(trace.EvMsgComplete, f.Src, d.MsgID)
	if !d.Notify {
		return
	}
	e.Notify.Put(Notification{
		Src:     f.Src,
		MsgID:   d.MsgID,
		BufID:   d.BufID,
		Offset:  d.BufOffset - d.MsgOffset,
		Len:     d.MsgLen,
		Latency: f.Stamps.HostRecvDone.Sub(first.HostStart),
		Breakdown: stats.Breakdown{
			HostSend: first.HostDone.Sub(first.HostStart),
			NICSend:  first.Injected.Sub(first.HostDone),
			Wire:     first.Delivered.Sub(first.Injected),
			NICRecv:  first.NICRecvDone.Sub(first.Delivered),
			HostRecv: first.HostRecvDone.Sub(first.NICRecvDone),
		},
	})
}

// completionWindow tracks which message IDs from one source have
// completed: everything ≤ upTo, plus a sparse set above it that is folded
// down as gaps fill. With reliable transport every ID eventually
// completes, so the sparse set stays bounded by the in-flight window.
// In-order completion — the common case — only advances upTo: the sparse
// set is made at the first out-of-order completion and read only while
// it holds something.
type completionWindow struct {
	upTo   uint64
	sparse map[uint64]bool
}

func (c *completionWindow) done(id uint64) bool {
	return id <= c.upTo || len(c.sparse) > 0 && c.sparse[id]
}

func (c *completionWindow) mark(id uint64) {
	if id <= c.upTo {
		return
	}
	if id == c.upTo+1 && len(c.sparse) == 0 {
		c.upTo = id
		return
	}
	if c.sparse == nil {
		c.sparse = make(map[uint64]bool)
	}
	c.sparse[id] = true
	for c.sparse[c.upTo+1] {
		delete(c.sparse, c.upTo+1)
		c.upTo++
	}
}

// WaitNotification blocks the calling process until a notification arrives
// on the export.
func (e *Export) WaitNotification(p *sim.Proc) Notification {
	return e.Notify.Get(p)
}
