package nic

import (
	"math/rand"
	"testing"
	"time"

	"sanft/internal/fabric"
	"sanft/internal/fault"
	"sanft/internal/proto"
	"sanft/internal/retrans"
	"sanft/internal/routing"
	"sanft/internal/sim"
	"sanft/internal/topology"
	"sanft/internal/trace"
)

// frameHdr is what a data frame said it was as its packet left the NIC.
type frameHdr struct {
	frame    *proto.Frame
	src, dst topology.NodeID
	gen      uint32
	seq      uint64
	msg      uint64
}

func hdrOf(f *proto.Frame) frameHdr {
	return frameHdr{f, f.Src, f.Dst, f.Gen, f.Seq, msgOf(f)}
}

// seqKey names one sequence number of one generation on one path; flowMsg
// one message of one flow.
type (
	seqKey  struct{ src, dst, gen, seq uint64 }
	flowMsg struct{ src, dst, msg uint64 }
)

// ownWire is the wormhole fabric seen through the checks of
// TestDataFrameOwnershipWormhole. It notes the header of the frame every
// packet carries as the packet leaves, and checks at arrival that the
// frame is the same one and still says so. The packets that never arrive
// stay in out: the fabric dropped them, and a drop callback may still
// read their frames, so those must stay as they were too.
type ownWire struct {
	t   *testing.T
	ft  bool
	fab *fabric.Fabric
	out map[*fabric.Packet]frameHdr
	// seqs and msgs record what was sent: the message each sequence
	// number carried, and each message of each flow.
	seqs map[seqKey]uint64
	msgs map[flowMsg]bool
	// acked is the newest cumulative ack that arrived at each sender
	// from each receiver; copiesPastAck counts resent copies that arrived
	// after an ack covering them had.
	acked         map[[2]topology.NodeID][2]uint64
	copiesPastAck int
}

func (w *ownWire) Inject(src topology.NodeID, pkt *fabric.Packet) {
	f := pkt.Payload.(*proto.Frame)
	h := hdrOf(f)
	w.out[pkt] = h
	if f.Type == proto.FrameData {
		if w.ft {
			k := seqKey{uint64(h.src), uint64(h.dst), uint64(h.gen), h.seq}
			if m, ok := w.seqs[k]; ok && m != h.msg {
				w.t.Errorf("%d->%d gen %d seq %d carried message %d, and now %d", h.src, h.dst, h.gen, h.seq, m, h.msg)
			}
			w.seqs[k] = h.msg
		}
		w.msgs[flowMsg{uint64(h.src), uint64(h.dst), h.msg}] = true
	}
	w.fab.Inject(src, pkt)
}

func (w *ownWire) AttachHost(h topology.NodeID, fn func(*fabric.Packet)) {
	w.fab.AttachHost(h, func(pkt *fabric.Packet) {
		f := pkt.Payload.(*proto.Frame)
		if want, ok := w.out[pkt]; ok {
			delete(w.out, pkt)
			if got := hdrOf(f); got != want {
				w.t.Errorf("a packet left with %+v and arrived with %+v", want, got)
			}
			if a, ok := w.acked[[2]topology.NodeID{f.Src, f.Dst}]; f.Retransmitted && ok && a[0] == uint64(f.Gen) && f.Seq <= a[1] {
				w.copiesPastAck++
			}
		}
		if f.HasAck {
			w.acked[[2]topology.NodeID{f.Dst, f.Src}] = [2]uint64{uint64(f.AckGen), f.AckSeq}
		}
		fn(pkt)
	})
}

// streamTracer counts the go-back-N copies a NIC queues while an
// original, never resent, still streams on its send DMA.
type streamTracer struct {
	nics     map[topology.NodeID]*NIC
	whileOrg int
}

func (s *streamTracer) Trace(e trace.Event) {
	if e.Kind != trace.EvRetransmit {
		return
	}
	if n := s.nics[e.Node]; n.txBusy && n.txCur.entry != nil && n.txCur.entry.Retransmits == 0 {
		s.whileOrg++
	}
}

// TestDataFrameOwnershipWormhole sends pooled data frames
// (proto.Frames.NewData) over the wormhole fabric, two hosts into a third
// and the third back, under each case's faults, and checks the rule that
// a data frame's block has one hold per holder — the send path, the
// retransmission entry, each packet that carries it — and goes back to
// the cell's list only when the last lets go. Every frame a packet
// carries must still be the frame it left with when it arrives, and when
// it is delivered its source, generation, sequence and message ID must
// match what was sent; the frames of the packets the fabric dropped must
// be as they were sent; and once the traffic is over, every block the
// frame list made must be back on it but one per dropped packet, so no
// block is lost and none goes back twice.
//
// It fails on a release too many on the receive path (a block reused
// while a packet still carries it), on a resent copy that points into its
// original's payload, on an entry release that keeps its hold (a block
// lost per message), and on a fabric drop that sends its packet's frame
// home.
func TestDataFrameOwnershipWormhole(t *testing.T) {
	const (
		msgs     = 300
		lossSeed = 7
	)
	cases := []struct {
		name     string
		ft       bool
		q        int
		interval time.Duration
		size     int
		// Faults: corrupt and loss are the transit hook's rates, drop the
		// senders' send-side rate; ResetPath renews h0's path to h2 every
		// reset.
		corrupt, loss, drop float64
		reset               time.Duration
		// want names the counts the case is for, which must not be 0.
		want []string
	}{
		{name: "burst-while-streaming", ft: true, q: 16, interval: 200 * time.Microsecond, size: 4096, loss: 0.02,
			want: []string{"bursts-while-streaming", "pkts-retransmitted", "fabric-drops"}},
		{name: "acked-with-copy-in-fabric", ft: true, q: 16, interval: 100 * time.Microsecond, size: 2048,
			want: []string{"copies-past-ack", "rx-dup-drops"}},
		{name: "reset-path", ft: true, q: 16, interval: time.Millisecond, size: 1024, reset: 150 * time.Microsecond,
			want: []string{"path-resets", "resets-in-flight"}},
		{name: "crc-dup-fabric-drops", ft: true, q: 16, interval: 100 * time.Microsecond, size: 512, corrupt: 0.03, loss: 0.03,
			want: []string{"crc-drops", "rx-dup-drops", "fabric-drops"}},
		{name: "no-ft-dropper", q: 16, size: 512, loss: 0.02, drop: 0.05,
			want: []string{"err-injected-drops", "fabric-drops"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.New(1)
			nw, hosts := topology.Star(3)
			fab := fabric.New(k, nw, fabric.DefaultConfig())
			w := &ownWire{t: t, ft: tc.ft, fab: fab, out: make(map[*fabric.Packet]frameHdr),
				seqs: make(map[seqKey]uint64), msgs: make(map[flowMsg]bool),
				acked: make(map[[2]topology.NodeID][2]uint64)}
			rng := rand.New(rand.NewSource(lossSeed))
			fab.SetTransitHook(func(p *fabric.Packet) bool {
				if rng.Float64() < tc.corrupt {
					p.Corrupted = true
				}
				return rng.Float64() >= tc.loss
			})
			tr := &streamTracer{nics: make(map[topology.NodeID]*NIC)}
			delivered := make(map[flowMsg]int)
			nics := tr.nics
			for i, h := range hosts {
				h := h
				opts := Options{FT: tc.ft, Retrans: retrans.Config{QueueSize: tc.q, Interval: tc.interval}, Tracer: tr}
				if tc.drop > 0 && i < 2 {
					opts.Dropper = fault.NewRandom(tc.drop, int64(i+1))
				}
				opts.OnDeliver = func(f *proto.Frame) {
					m := flowMsg{uint64(f.Src), uint64(f.Dst), msgOf(f)}
					if f.Dst != h || !w.msgs[m] {
						t.Errorf("host %d was delivered message %d from %d to %d, never sent", h, m.msg, f.Src, f.Dst)
					}
					if sent, ok := w.seqs[seqKey{m.src, m.dst, uint64(f.Gen), f.Seq}]; tc.ft && (!ok || sent != m.msg) {
						t.Errorf("%d->%d gen %d seq %d delivered message %d, sent %d (sent: %v)", f.Src, f.Dst, f.Gen, f.Seq, m.msg, sent, ok)
					}
					delivered[m]++
				}
				nics[h] = New(k, w, h, opts)
			}
			routes := make(map[[2]topology.NodeID]routing.Route)
			for _, a := range hosts {
				for _, b := range hosts {
					if a != b {
						rt, err := routing.Shortest(nw, a, b)
						if err != nil {
							t.Fatal(err)
						}
						routes[[2]topology.NodeID{a, b}] = rt
						nics[a].SetRoute(b, rt)
					}
				}
			}
			frames := proto.FramesOf(k)
			// Two flows stream into h2 as fast as their send buffers allow;
			// the reverse flow is paced, so that h2 owes acks and
			// piggybacks some, but its own bursts stay rare: a NIC that
			// keeps bursting starves its acks behind the copies (ROADMAP).
			flows := [][2]topology.NodeID{{hosts[0], hosts[2]}, {hosts[1], hosts[2]}, {hosts[2], hosts[0]}}
			for i, fl := range flows {
				src, dst := fl[0], fl[1]
				buf := make([]byte, tc.size)
				gap := time.Duration(i/2) * 50 * time.Microsecond
				k.Spawn("sender", func(p *sim.Proc) {
					for m := 1; m <= msgs; m++ {
						nics[src].Send(p, frames.NewData(dst, proto.DataPayload{MsgID: uint64(m), MsgLen: tc.size, Data: buf}))
						p.Sleep(gap + time.Duration(m%3)*time.Microsecond)
					}
				})
			}
			resets, resetsInFlight := 0, 0
			if tc.reset > 0 {
				a, b := hosts[0], hosts[2]
				var renew func()
				renew = func() {
					if n := nics[a]; n.txBusy || n.txQueue.Len() > 0 {
						resetsInFlight++
					}
					resets++
					nics[a].ResetPath(b, routes[[2]topology.NodeID{a, b}])
					if resets < 40 {
						k.After(tc.reset, renew)
					}
				}
				k.After(tc.reset, renew)
			}
			k.RunFor(300 * time.Millisecond)
			k.Stop()

			for pkt, want := range w.out {
				if got := hdrOf(pkt.Payload.(*proto.Frame)); got != want {
					t.Errorf("the frame of a packet the fabric dropped changed from %+v to %+v", want, got)
				}
			}
			// Every block the list made is back on it now, but the frame of
			// each packet the fabric dropped: count the free ones by drawing
			// until the list has to make one.
			made, free := frames.Made(), 0
			for frames.NewAck(0, 0, 0); frames.Made() == made; frames.NewAck(0, 0, 0) {
				free++
			}
			if out := made - free; out != len(w.out) {
				t.Errorf("%d of the %d blocks the frame list made are out after the run, want %d, one per dropped packet",
					out, made, len(w.out))
			}
			got := map[string]uint64{"fabric-drops": uint64(len(w.out)), "copies-past-ack": uint64(w.copiesPastAck),
				"bursts-while-streaming": uint64(tr.whileOrg), "resets-in-flight": uint64(resetsInFlight)}
			for _, name := range []string{"pkts-retransmitted", "rx-dup-drops", "crc-drops", "path-resets", "err-injected-drops"} {
				for _, n := range nics {
					got[name] += n.Counters().Get(name)
				}
			}
			t.Logf("%v, %d blocks made", got, made)
			for _, name := range tc.want {
				if got[name] == 0 {
					t.Errorf("no %s: the case does not exercise what it is for (%v)", name, got)
				}
			}
			for _, fl := range flows {
				for m := 1; m <= msgs && tc.ft; m++ {
					if delivered[flowMsg{uint64(fl[0]), uint64(fl[1]), uint64(m)}] == 0 {
						t.Fatalf("message %d of %d->%d was never delivered", m, fl[0], fl[1])
					}
				}
				if tc.ft && nics[fl[0]].ProtoSender().Unacked(fl[1]) != 0 {
					t.Fatalf("%d->%d still has unacked entries", fl[0], fl[1])
				}
			}
		})
	}
}
