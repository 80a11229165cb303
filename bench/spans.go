package main

import (
	"encoding/json"
	"io"
	"time"
)

// span is one timed call made by the benchmark. Parent is the id of the
// enclosing span (0 for a root); Req ties the spans of one served job
// together.
type span struct {
	Name       string
	Start, End time.Time
	ID, Parent int
	Req        string
}

// tracer keeps every span in memory until the run ends. Spans are the
// benchmark's only timers, so recording them is always on; -trace only
// decides whether they are written out.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent int, req string) int {
	now := time.Now()
	t.spans = append(t.spans, span{Name: name, Start: now, ID: len(t.spans) + 1, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes span id and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	s := &t.spans[id-1]
	s.End = now
	return now.Sub(s.Start)
}

// add records an interval measured elsewhere, such as the queue and run
// times the job server reports for a job.
func (t *tracer) add(name string, start, end time.Time, parent int, req string) {
	t.spans = append(t.spans, span{Name: name, Start: start, End: end, ID: len(t.spans) + 1, Parent: parent, Req: req})
}

// timed runs fn inside a span and returns its error and duration.
func (t *tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, "")
	err := fn()
	return t.end(id), err
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes the spans as Chrome trace-event JSON. Each span tree
// gets its own row (tid = root span id), so a job or repetition reads as one
// row.
func (t *tracer) writeChrome(w io.Writer) error {
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	events := make([]chromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		root := s.ID
		for p := s.Parent; p != 0; p = t.spans[p-1].Parent {
			root = p
		}
		end := s.End
		if end.IsZero() {
			end = s.Start
		}
		events = append(events, chromeEvent{
			Name: s.Name, Ph: "X", Ts: us(s.Start.Sub(t.epoch)), Dur: us(end.Sub(s.Start)),
			Pid: 1, Tid: root,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
