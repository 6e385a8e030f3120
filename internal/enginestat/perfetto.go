package enginestat

import (
	"fmt"
	"io"
	"sort"

	"sanft/internal/report"
)

// SpanKind classifies a recorded wall-clock interval.
type SpanKind uint8

const (
	// SpanShard is a worker executing one shard's kernel window.
	SpanShard SpanKind = iota
	// SpanSolo is the coordinator executing a batched single-busy-shard
	// window outside the barrier protocol.
	SpanSolo
	// SpanBarrier is the coordinator waiting for helper acks at the end
	// of an epoch.
	SpanBarrier
	// SpanExchange is the coordinator moving cross-shard events between
	// epochs (deliver + collect + sort).
	SpanExchange
)

var spanKindNames = [...]string{"shard", "solo", "barrier", "exchange"}

func (k SpanKind) String() string {
	if int(k) < len(spanKindNames) {
		return spanKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Span is one wall-clock interval on a worker's timeline. Shard is the
// shard executed for SpanShard/SpanSolo spans, -1 otherwise.
type Span struct {
	Worker  int
	Kind    SpanKind
	Shard   int
	StartNS int64
	EndNS   int64
}

// SpanLog is a bounded, worker-local span recorder. Each worker owns one
// log exclusively during an epoch; logs are only read after the engine
// quiesces. When the cap is reached further spans are dropped (and
// counted), keeping the memory bound hard even on very long runs.
type SpanLog struct {
	spans   []Span
	cap     int
	dropped uint64
}

// Record appends a span if under cap. Never called concurrently for one log.
func (l *SpanLog) Record(s Span) {
	if l == nil {
		return
	}
	if len(l.spans) >= l.cap {
		l.dropped++
		return
	}
	l.spans = append(l.spans, s)
}

// Dropped reports how many spans exceeded the cap.
func (l *SpanLog) Dropped() uint64 {
	if l == nil {
		return 0
	}
	return l.dropped
}

// WriteChromeTrace writes the profile's wall-clock spans as Chrome
// trace-event JSON through the same writer as internal/trace's exporter,
// but on the *wall-clock* timeline: one process group ("engine wall-clock"),
// one track (tid) per worker, duration ("X") events for every recorded
// span. Timestamps are nanoseconds since the earliest span, rendered as
// microseconds with nanosecond precision, so the output is byte-stable
// for a given Profile and starts near zero regardless of process uptime.
//
// Load the file in ui.perfetto.dev next to the simulated-time trace:
// barrier stalls and steal imbalance appear as bars per worker.
func (p *Profile) WriteChromeTrace(w io.Writer) error {
	spans := make([]Span, len(p.Spans))
	copy(spans, p.Spans)
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		if a.StartNS != b.StartNS {
			return a.StartNS < b.StartNS
		}
		if a.Worker != b.Worker {
			return a.Worker < b.Worker
		}
		return a.EndNS < b.EndNS
	})
	var base int64
	if len(spans) > 0 {
		base = spans[0].StartNS
	}
	workers := map[int]bool{}
	for i := range spans {
		workers[spans[i].Worker] = true
	}
	var tids []int
	for id := range workers {
		tids = append(tids, id)
	}
	sort.Ints(tids)

	ct := report.NewChromeTrace(w)
	ct.Meta(1, 0, "process_name", "engine wall-clock")
	for _, tid := range tids {
		name := fmt.Sprintf("worker%d", tid)
		if tid == 0 {
			name = "worker0 (coordinator)"
		}
		ct.Meta(1, tid, "thread_name", name)
	}
	for i := range spans {
		s := &spans[i]
		name := s.Kind.String()
		if s.Shard >= 0 {
			name = fmt.Sprintf("%s %d", name, s.Shard)
		}
		ct.Record("{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"name\":%q,\"args\":{\"kind\":%q,\"shard\":%d}}",
			s.Worker, report.Micros(s.StartNS-base), report.Micros(s.EndNS-s.StartNS), name, s.Kind.String(), s.Shard)
	}
	return ct.Close()
}
