package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. parent indexes the enclosing span
// in the tracer's list (-1 for a root); op is the operation it served.
type span struct {
	name       string
	op         int32
	parent     int32
	start, end int64 // ns since the tracer's base
}

// tracer keeps spans in memory; they are written out when the run ends.
// The client loop and the server's connection goroutine both record, so
// appends take a lock.
type tracer struct {
	base  time.Time
	on    atomic.Bool
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// begin opens a span and returns its index; close it with end.
func (t *tracer) begin(name string, op, parent int32) int32 {
	now := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, end: now})
	i := int32(len(t.spans) - 1)
	t.mu.Unlock()
	return i
}

// end closes span i and returns its duration.
func (t *tracer) end(i int32) int64 {
	now := t.now()
	t.mu.Lock()
	t.spans[i].end = now
	d := now - t.spans[i].start
	t.mu.Unlock()
	return d
}

// add records a finished span.
func (t *tracer) add(name string, op, parent int32, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: start, end: end})
	t.mu.Unlock()
}

// timeIt runs f inside a span and returns its duration.
func (t *tracer) timeIt(name string, op, parent int32, f func()) int64 {
	i := t.begin(name, op, parent)
	f()
	return t.end(i)
}

// byOp groups the spans named name by operation id.
func (t *tracer) byOp(name string) map[int32][]interval {
	out := map[int32][]interval{}
	for _, s := range t.spans {
		if s.name == name {
			out[s.op] = append(out[s.op], interval{s.start, s.end})
		}
	}
	return out
}

// write saves every span as tab-separated lines under dir.
func (t *tracer) write(dir, file string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, file))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "index\tname\top\tparent\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.name, s.op, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
