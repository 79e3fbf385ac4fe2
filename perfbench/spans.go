package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// The traced run's spans: one span per call into a layer, named after
// the module that serves it. Each request, chunk or measured step is a
// root with its own trace id; the calls it makes are its children. The
// spans stay in memory and are written at exit as stdouttrace JSONL, the
// format the span importer reads, so `aftermath -serve <file>` shows the
// benchmark's own run.

// spanRec is one finished span.
type spanRec struct {
	trace, id, parent uint64
	layer, name       string
	start, end        time.Time
}

// recorder collects spans. A nil *recorder records nothing, which is
// how the untraced side of the overhead comparison runs.
type recorder struct {
	mu     sync.Mutex
	spans  []spanRec
	nextID uint64
	traces uint64
}

// span is an open span; end records it.
type span struct {
	rec *recorder
	spanRec
}

// root opens a span with a new trace id.
func (rc *recorder) root(layer, name string) *span {
	if rc == nil {
		return nil
	}
	rc.mu.Lock()
	rc.traces++
	rc.nextID++
	sp := &span{rec: rc, spanRec: spanRec{trace: rc.traces, id: rc.nextID, layer: layer, name: name}}
	rc.mu.Unlock()
	sp.start = time.Now()
	return sp
}

// child opens a span caused by sp, in the same trace.
func (sp *span) child(layer, name string) *span {
	if sp == nil {
		return nil
	}
	rc := sp.rec
	rc.mu.Lock()
	rc.nextID++
	c := &span{rec: rc, spanRec: spanRec{trace: sp.trace, id: rc.nextID, parent: sp.id, layer: layer, name: name}}
	rc.mu.Unlock()
	c.start = time.Now()
	return c
}

// end closes sp and returns its duration.
func (sp *span) end() time.Duration {
	if sp == nil {
		return 0
	}
	sp.spanRec.end = time.Now()
	sp.rec.mu.Lock()
	sp.rec.spans = append(sp.rec.spans, sp.spanRec)
	sp.rec.mu.Unlock()
	return sp.spanRec.end.Sub(sp.start)
}

// timed runs fn inside a child span of parent (a root when parent is
// nil) and returns the span's duration.
func (rc *recorder) timed(parent *span, layer, name string, fn func()) time.Duration {
	var sp *span
	if parent != nil {
		sp = parent.child(layer, name)
	} else {
		sp = rc.root(layer, name)
	}
	if sp == nil {
		start := time.Now()
		fn()
		return time.Since(start)
	}
	fn()
	return sp.end()
}

// writeJSONL writes every recorded span as one stdouttrace line.
func (rc *recorder) writeJSONL(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	rc.mu.Lock()
	spans := append([]spanRec(nil), rc.spans...)
	rc.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].start.Before(spans[j].start) })
	for _, s := range spans {
		traceID := fmt.Sprintf("%032x", s.trace)
		parent := ""
		if s.parent != 0 {
			parent = fmt.Sprintf(`"Parent":{"TraceID":%q,"SpanID":"%016x"},`, traceID, s.parent)
		}
		fmt.Fprintf(w, `{"Name":%q,"SpanContext":{"TraceID":%q,"SpanID":"%016x"},%s"StartTime":%q,"EndTime":%q,"Status":{"Code":"Unset"},"Resource":[{"Key":"service.name","Value":{"Type":"STRING","Value":%q}}]}`+"\n",
			s.name, traceID, s.id, parent, s.start.UTC().Format(time.RFC3339Nano), s.end.UTC().Format(time.RFC3339Nano), s.layer)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, each span's self time: its duration minus
// the part of its interval that its child spans cover.
func selfTimes(spans []spanRec) map[string]time.Duration {
	children := map[uint64][]spanRec{}
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.layer] += selfTime(s, children[s.id])
	}
	return out
}

// selfTime is s's duration minus the union of its children's intervals
// clipped to s.
func selfTime(s spanRec, children []spanRec) time.Duration {
	ivs := make([][2]time.Time, 0, len(children))
	for _, c := range children {
		a, b := c.start, c.end
		if a.Before(s.start) {
			a = s.start
		}
		if b.After(s.end) {
			b = s.end
		}
		if b.After(a) {
			ivs = append(ivs, [2]time.Time{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0].Before(ivs[j][0]) })
	var covered time.Duration
	var curA, curB time.Time
	for i, iv := range ivs {
		if i == 0 || iv[0].After(curB) {
			covered += curB.Sub(curA)
			curA, curB = iv[0], iv[1]
			continue
		}
		if iv[1].After(curB) {
			curB = iv[1]
		}
	}
	covered += curB.Sub(curA)
	return s.end.Sub(s.start) - covered
}
