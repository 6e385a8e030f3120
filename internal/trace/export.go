package trace

import (
	"fmt"
	"io"
	"sort"

	"sanft/internal/report"
	"sanft/internal/sim"
)

// Chrome trace-event export: the events render as instant events on one
// track (tid) per NIC and one per directed link, inside two process
// groups ("nics" and "fabric links"); wormhole blocking intervals
// additionally render as duration ("X") events on their link track, so a
// blocked path is visible as a bar, not a dot. Timestamps are simulated
// time expressed in microseconds (the trace-event unit), emitted with
// nanosecond precision. The output is a single deterministic JSON object
// loadable by Perfetto (ui.perfetto.dev) and chrome://tracing.

const (
	chromePidNICs  = 1
	chromePidLinks = 2
)

// linkTid maps a directed channel to its stable track ID.
func linkTid(link int32, dir uint8) int { return int(link-1)*2 + int(dir) }

// chromeTS renders a simulated instant as trace-event microseconds.
func chromeTS(t sim.Time) string { return report.Micros(int64(t)) }

// WriteChromeTrace writes events as Chrome trace-event JSON.
func WriteChromeTrace(w io.Writer, events []Event) error {
	// Track discovery first, so metadata precedes data in the output.
	nics := map[int]bool{}
	links := map[int]int32{} // tid -> link for labels
	dirs := map[int]uint8{}
	for _, e := range events {
		nics[int(e.Node)] = true
		if e.Link != 0 {
			tid := linkTid(e.Link, e.Dir)
			links[tid] = e.Link
			dirs[tid] = e.Dir
		}
	}
	var nicIDs []int
	for id := range nics {
		nicIDs = append(nicIDs, id)
	}
	sort.Ints(nicIDs)
	var linkTids []int
	for tid := range links {
		linkTids = append(linkTids, tid)
	}
	sort.Ints(linkTids)

	ct := report.NewChromeTrace(w)
	ct.Meta(chromePidNICs, 0, "process_name", "nics")
	ct.Meta(chromePidLinks, 0, "process_name", "fabric links")
	for _, id := range nicIDs {
		ct.Meta(chromePidNICs, id, "thread_name", fmt.Sprintf("nic%d", id))
	}
	for _, tid := range linkTids {
		ct.Meta(chromePidLinks, tid, "thread_name",
			fmt.Sprintf("link%d.%d", links[tid]-1, dirs[tid]))
	}

	// Open blocking intervals, to pair EvLinkBlock with its resolution.
	type blockOpen struct {
		at  sim.Time
		tid int
	}
	open := map[blockKey]blockOpen{}
	closeBlock := func(k blockKey, o blockOpen, end sim.Time) {
		ct.Record("{\"ph\":\"X\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":\"blocked\",\"args\":{\"gen\":%d,\"seq\":%d}}",
			chromePidLinks, o.tid, chromeTS(o.at), report.Micros(int64(end.Sub(o.at))), k.gen, k.seq)
	}
	for _, e := range events {
		pid, tid := chromePidNICs, int(e.Node)
		if e.Link != 0 {
			pid, tid = chromePidLinks, linkTid(e.Link, e.Dir)
		}
		var note string
		if e.Note != "" {
			note = fmt.Sprintf(",\"note\":%q", e.Note)
		}
		ct.Record("{\"ph\":\"i\",\"s\":\"t\",\"pid\":%d,\"tid\":%d,\"ts\":%s,\"name\":%q,\"args\":{\"peer\":%d,\"gen\":%d,\"seq\":%d,\"msg\":%d%s}}",
			pid, tid, chromeTS(e.At), e.Kind.String(), e.Peer, e.Gen, e.Seq, e.Msg, note)
		switch e.Kind {
		case EvLinkBlock:
			open[blockKey{e.Gen, e.Seq, e.Link, e.Dir}] = blockOpen{e.At, tid}
		case EvLinkAcquire:
			k := blockKey{e.Gen, e.Seq, e.Link, e.Dir}
			if o, ok := open[k]; ok {
				closeBlock(k, o, e.At)
				delete(open, k)
			}
		case EvWatchdog, EvFabDrop:
			// Close the dead worm's open blocks. An original and its
			// retransmitted clone share (gen, seq), so more than one key
			// can match; sort for byte-stable output.
			var ks []blockKey
			for k := range open {
				if k.gen == e.Gen && k.seq == e.Seq {
					ks = append(ks, k)
				}
			}
			sort.Slice(ks, func(i, j int) bool {
				if ks[i].link != ks[j].link {
					return ks[i].link < ks[j].link
				}
				return ks[i].dir < ks[j].dir
			})
			for _, k := range ks {
				closeBlock(k, open[k], e.At)
				delete(open, k)
			}
		}
	}
	return ct.Close()
}

// WriteTimeline writes events as the deterministic text timeline, one
// line per event in emission order.
func WriteTimeline(w io.Writer, events []Event) error {
	for _, e := range events {
		if _, err := fmt.Fprintf(w, "%s\n", e.String()); err != nil {
			return err
		}
	}
	return nil
}
