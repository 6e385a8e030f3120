package report

import (
	"fmt"
	"io"
)

// ChromeTrace writes one Chrome trace-event JSON document, loadable by
// Perfetto (ui.perfetto.dev) and chrome://tracing: a header, one record
// per Record call, then a footer on Close. Write errors are folded, so
// export loops stay uncluttered and Close reports the first one.
type ChromeTrace struct {
	w   io.Writer
	err error
	n   int // records written so far
}

// NewChromeTrace starts a trace document on w.
func NewChromeTrace(w io.Writer) *ChromeTrace {
	t := &ChromeTrace{w: w}
	t.printf("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n")
	return t
}

// Meta writes a metadata record naming process pid (key "process_name")
// or thread tid of pid (key "thread_name").
func (t *ChromeTrace) Meta(pid, tid int, key, name string) {
	t.Record("{\"ph\":\"M\",\"pid\":%d,\"tid\":%d,\"name\":%q,\"args\":{\"name\":%q}}", pid, tid, key, name)
}

// Record writes one trace event, a JSON object rendered from format.
func (t *ChromeTrace) Record(format string, args ...any) {
	if t.n > 0 {
		t.printf(",\n")
	}
	t.n++
	t.printf(format, args...)
}

// Close writes the footer and returns the first write error, if any.
func (t *ChromeTrace) Close() error {
	t.printf("\n]}\n")
	return t.err
}

func (t *ChromeTrace) printf(format string, args ...any) {
	if t.err != nil {
		return
	}
	_, t.err = fmt.Fprintf(t.w, format, args...)
}

// Micros renders a nanosecond count as trace-event microseconds with
// nanosecond precision, without floating point, so the output is
// byte-stable across platforms.
func Micros(ns int64) string { return fmt.Sprintf("%d.%03d", ns/1000, ns%1000) }
