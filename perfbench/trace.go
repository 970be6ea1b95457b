package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one operation share op; parent indexes the
// span that caused this one (-1 for an operation's root).
type span struct {
	name       uint16
	parent     int32
	op         uint32
	start, end int64 // ns since the tracer's epoch
}

// tracer keeps spans in memory, preallocated so recording does not
// allocate, and writes them out when the run ends. A nil *tracer records
// nothing, which is how untraced runs call the same code paths.
type tracer struct {
	mu      sync.Mutex
	epoch   time.Time
	names   []string
	byName  map[string]uint16
	spans   []span
	dropped int
}

// maxSpans bounds the recorder at 64 MiB, room for a 30-second traced
// window at the fastest rate seen plus the layer probes; spans past it are
// counted, not kept.
const maxSpans = 1 << 21

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: map[string]uint16{}, spans: make([]span, 0, maxSpans)}
}

// kind interns a span name; call it during set-up, not per span.
func (t *tracer) kind(name string) uint16 {
	if t == nil {
		return 0
	}
	if k, ok := t.byName[name]; ok {
		return k
	}
	k := uint16(len(t.names))
	t.names = append(t.names, name)
	t.byName[name] = k
	return k
}

// begin opens a span and returns its index (-1 when untraced or full). A
// child span takes its parent's op id.
func (t *tracer) begin(name uint16, op uint32, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	if parent >= 0 {
		op = t.spans[parent].op
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: op, start: now})
	return int32(len(t.spans) - 1)
}

// end closes the span begin returned.
func (t *tracer) end(i int32) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// record adds a finished root span whose times were read elsewhere, such
// as in a child process.
func (t *tracer) record(name uint16, op uint32, start, end time.Time) {
	i := t.begin(name, op, -1)
	if i < 0 {
		return
	}
	t.mu.Lock()
	t.spans[i].start, t.spans[i].end = int64(start.Sub(t.epoch)), int64(end.Sub(t.epoch))
	t.mu.Unlock()
}

// layerTime aggregates the spans of one name.
type layerTime struct {
	count   int
	totalNs int64
	selfNs  int64
	self    []float64 // per-span self time, µs
}

func (l *layerTime) meanSelfUS() float64 { return ratio(float64(l.selfNs)/1e3, float64(l.count)) }

// selfTimes attributes time per span name. A span's self time is its
// duration minus the part of it its child spans cover; children of one
// span never overlap here, since each layer call returns before the next.
func (t *tracer) selfTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 {
			child[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerTime{}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		name := t.names[s.name]
		l := out[name]
		if l == nil {
			l = &layerTime{}
			out[name] = l
		}
		d := s.end - s.start
		self := d - child[i]
		l.count++
		l.totalNs += d
		l.selfNs += self
		l.self = append(l.self, float64(self)/1e3)
	}
	return out
}

// printSelfTimes writes the per-name self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	agg := t.selfTimes()
	names := make([]string, 0, len(agg))
	for n := range agg {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# spans: %d kept, %d dropped\n", len(t.spans), t.dropped)
	fmt.Fprintf(w, "# %-20s %9s %12s %12s %12s\n", "span", "count", "mean_us", "self_us", "self_p50_us")
	for _, n := range names {
		l := agg[n]
		fmt.Fprintf(w, "# %-20s %9d %12.3f %12.3f %12.3f\n", n, l.count,
			ratio(float64(l.totalNs)/1e3, float64(l.count)), l.meanSelfUS(), median(l.self))
	}
}

// writeOut stores the spans as JSON lines in dir/<file>.
func (t *tracer) writeOut(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range t.spans {
		fmt.Fprintf(w, "{\"name\":%q,\"op\":%d,\"parent\":%d,\"start_ns\":%d,\"end_ns\":%d}\n",
			t.names[s.name], s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
