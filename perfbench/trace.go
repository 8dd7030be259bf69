package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, made by the benchmark itself.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"` // 0 = root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per span.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer(origin time.Time) *tracer { return &tracer{origin: origin} }

// begin opens a span under parent (0 for a root) and returns the function
// that closes it, which reports the span's duration in seconds.
func (t *tracer) begin(name string, parent int) (id int, end func() float64) {
	start := time.Now()
	if t == nil {
		return 0, func() float64 { return time.Since(start).Seconds() }
	}
	t.mu.Lock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(start.Sub(t.origin))})
	t.mu.Unlock()
	return id, func() float64 {
		now := time.Now()
		t.mu.Lock()
		t.spans[id-1].End = int64(now.Sub(t.origin))
		t.mu.Unlock()
		return now.Sub(start).Seconds()
	}
}

// writeJSONL writes every span, one JSON object per line, to path.
func (t *tracer) writeJSONL(path string) error {
	if t == nil {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			_ = f.Close() // the encode error is the one to report
			return fmt.Errorf("writing spans: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		_ = f.Close() // the flush error is the one to report
		return fmt.Errorf("writing spans: %w", err)
	}
	return f.Close()
}
