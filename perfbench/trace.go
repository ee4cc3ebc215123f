package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call. Spans of one operation share Job.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	Job   string `json:"job,omitempty"`
	Note  string `json:"note,omitempty"`
}

// recorder keeps a traced run's spans in memory until the run ends. A
// nil *recorder records nothing, so untraced runs pay one nil check per
// boundary.
type recorder struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16)}
}

// newID reserves a span id, so children can name a parent that is
// recorded after them.
func (r *recorder) newID() uint64 {
	if r == nil {
		return 0
	}
	return r.ids.Add(1)
}

// add records a finished span under a reserved id (0: allocate one).
func (r *recorder) add(id, parent uint64, name string, start, end time.Time, job, note string) {
	if r == nil {
		return
	}
	if id == 0 {
		id = r.newID()
	}
	s := span{ID: id, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(), Job: job, Note: note}
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// timed runs f inside a span named name.
func (r *recorder) timed(name string, f func()) {
	start := time.Now()
	f()
	r.add(0, 0, name, start, time.Now(), "", "")
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
