package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// benchmark run share its run id; parent is 0 for a root span.
type span struct {
	Run    string  `json:"run"`
	ID     int     `json:"id"`
	Parent int     `json:"parent,omitempty"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // since the run began
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine only.
type tracer struct {
	run   string
	t0    time.Time
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// begin opens a span and returns its id for end.
func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{
		Run: t.run, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Seconds(),
	})
	return len(t.spans)
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Seconds()
	return s.seconds()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	sum := 0.0
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.seconds()
		}
	}
	return sum
}

// durations lists the durations of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// write stores the spans as JSON lines.
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
