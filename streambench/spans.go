package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them once, at the end of
// the run. A nil tracer records nothing, which is how the untraced
// end-to-end run pays no tracing cost beyond a nil check.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	nextID int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// reserve returns a fresh span ID, for a parent recorded after its
// children.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	return t.nextID
}

// span records [start, end] under a fresh ID and returns it (0 on a nil
// tracer).
func (t *tracer) span(name string, parent, req int64, start, end time.Time) int64 {
	id := t.reserve()
	t.spanID(id, name, parent, req, start, end)
	return id
}

// spanID records [start, end] under an ID from reserve.
func (t *tracer) spanID(id int64, name string, parent, req int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
