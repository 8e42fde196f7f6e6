package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// Span kinds: one per layer boundary the benchmark's own code crosses.
// Every span but spanOp is recorded as a child of the op that made it.
const (
	spanOp = iota
	spanRMICall
	spanLookup
	spanFault
	spanLMI
	spanMark
	spanSync
	spanEvict
	numSpans
)

var spanNames = [numSpans]string{
	spanOp:      "op",
	spanRMICall: "rmi.call",
	spanLookup:  "nameserver.lookup",
	spanFault:   "replication.fault",
	spanLMI:     "objmodel.lmi",
	spanMark:    "replication.mark",
	spanSync:    "replication.sync",
	spanEvict:   "heap.evict",
}

// maxKeptSpans bounds the spans held for the dump written at exit;
// aggregates cover every span regardless.
const maxKeptSpans = 1 << 18

// span is one recorded interval, in nanoseconds since the tracer started.
type span struct {
	kind   int
	parent int32 // index into tracer.kept, -1 for a root
	start  int64
	end    int64
}

// openSpan is a span not yet ended, with the time its ended children
// covered so far.
type openSpan struct {
	kind     int
	kept     int32 // index into tracer.kept, -1 when the dump is full
	start    int64
	children int64
}

// spanAgg accumulates one kind's spans: their count and self time
// (duration minus the part covered by child spans).
type spanAgg struct {
	count uint64
	self  int64
}

// tracer records properly nested spans from the single client goroutine.
// A nil tracer, or one switched off, records nothing: untraced runs pay
// only a nil check per boundary.
type tracer struct {
	on    bool
	base  time.Time
	stack []openSpan
	kept  []span
	agg   [numSpans]spanAgg
}

func newTracer() *tracer {
	return &tracer{
		base:  time.Now(),
		stack: make([]openSpan, 0, 8),
		kept:  make([]span, 0, maxKeptSpans),
	}
}

// begin opens a span of kind as a child of the innermost open span and
// returns a token for end.
func (t *tracer) begin(kind int) bool {
	if t == nil || !t.on {
		return false
	}
	o := openSpan{kind: kind, kept: -1, start: int64(time.Since(t.base))}
	if len(t.kept) < cap(t.kept) {
		parent := int32(-1)
		if n := len(t.stack); n > 0 {
			parent = t.stack[n-1].kept
		}
		o.kept = int32(len(t.kept))
		t.kept = append(t.kept, span{kind: kind, parent: parent, start: o.start})
	}
	t.stack = append(t.stack, o)
	return true
}

// end closes the innermost open span; ok is begin's token.
func (t *tracer) end(ok bool) {
	if !ok {
		return
	}
	now := int64(time.Since(t.base))
	top := len(t.stack) - 1
	o := t.stack[top]
	t.stack = t.stack[:top]
	dur := now - o.start
	a := &t.agg[o.kind]
	a.count++
	a.self += dur - o.children
	if top > 0 {
		t.stack[top-1].children += dur
	}
	if o.kept >= 0 {
		t.kept[o.kept].end = now
	}
}

// reset discards the open spans of an op abandoned by a panic.
func (t *tracer) reset() {
	if t != nil {
		t.stack = t.stack[:0]
	}
}

// meanSelf returns the mean self time of kind's spans in unit, or 0 when
// none were recorded.
func (t *tracer) meanSelf(kind int, unit time.Duration) float64 {
	a := t.agg[kind]
	return div(float64(a.self), float64(a.count)) / float64(unit)
}

// write dumps the kept spans as JSON lines to path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	for i, s := range t.kept {
		fmt.Fprintf(bw, `{"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			i, s.parent, spanNames[s.kind], s.start, s.end)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	return f.Close()
}
