package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Tracer keeps spans in memory and writes them out when the run ends. A
// nil *Tracer records nothing, so untraced runs pay one branch per span.
type Tracer struct {
	mu    sync.Mutex
	spans []Span
	next  atomic.Int64
	t0    time.Time
	once  sync.Once
}

// Span is one timed call: a name, its start and end, the span it belongs
// to and the operation it served.
type Span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Op     int64  `json:"op,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"startUs"`
	End    int64  `json:"endUs"`
	Bytes  int    `json:"bytes,omitempty"`
	dur    time.Duration
}

// Active is an open span.
type Active struct {
	t          *Tracer
	ID         int64
	parent, op int64
	name       string
	start      time.Time
}

// Start opens a span under parent (0 for a root) for operation op.
func (t *Tracer) Start(parent, op int64, name string) Active {
	if t == nil {
		return Active{}
	}
	t.once.Do(func() { t.t0 = time.Now() })
	return Active{t: t, ID: t.next.Add(1), parent: parent, op: op, name: name, start: time.Now()}
}

// End closes the span and returns its duration.
func (a Active) End() time.Duration { return a.EndBytes(0) }

// EndBytes closes the span, recording a payload size.
func (a Active) EndBytes(n int) time.Duration {
	if a.t == nil {
		return 0
	}
	end := time.Now()
	d := end.Sub(a.start)
	a.t.mu.Lock()
	a.t.spans = append(a.t.spans, Span{
		ID: a.ID, Parent: a.parent, Op: a.op, Name: a.name, Bytes: n, dur: d,
		Start: a.start.Sub(a.t.t0).Microseconds(), End: end.Sub(a.t.t0).Microseconds(),
	})
	a.t.mu.Unlock()
	return d
}

// Durations returns the duration in seconds of every span with this name.
func (t *Tracer) Durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur.Seconds())
		}
	}
	return out
}

// Bytes returns the payload size of every span with this name.
func (t *Tracer) Bytes(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Bytes))
		}
	}
	return out
}

// Self returns, for every span with this name, its duration minus the
// durations of its child spans, in seconds. The benchmark times a layer by
// calling the layer below it on the same input right after, as a child
// span, so a layer's self time is what it adds on top of the layer below.
func (t *Tracer) Self(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	child := map[int64]time.Duration{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur
		}
	}
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, (s.dur - child[s.ID]).Seconds())
		}
	}
	return out
}

// Write stores every span as JSON.
func (t *Tracer) Write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
