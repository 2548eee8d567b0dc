package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// A span is one timed call into a layer, recorded from the benchmark's
// side of the call. Names are "<layer>.<what>"; the benchmark's own
// frames use the layer "bench".
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root
	Name   string        `json:"name"`
	Rep    int           `json:"rep"`  // set-up repetition or pass the span belongs to
	Lane   int           `json:"lane"` // display row: 0 serial, >0 one per concurrent actor
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced run: every method is a no-op, so call sites do not branch.
type tracer struct {
	epoch time.Time
	rep   atomic.Int64
	cur   atomic.Int64 // span that calls made on harness goroutines hang under

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	t := &tracer{epoch: time.Now()}
	t.cur.Store(-1)
	return t
}

// begin opens a span under parent and returns its id.
func (t *tracer) begin(name string, parent int) int { return t.beginLane(name, parent, 0) }

func (t *tracer) beginLane(name string, parent, lane int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Rep: int(t.rep.Load()), Lane: lane, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// scope names the span under which callbacks that cannot be handed a
// parent (the wrapped graph builders the harness calls) record theirs.
func (t *tracer) scope(id int) {
	if t != nil {
		t.cur.Store(int64(id))
	}
}

func (t *tracer) current() int {
	if t == nil {
		return -1
	}
	return int(t.cur.Load())
}

func (t *tracer) setRep(rep int) {
	if t != nil {
		t.rep.Store(int64(rep))
	}
}

// closed returns the finished spans.
func (t *tracer) closed() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns, per span id, the span's duration minus the part of
// it that its child spans cover. Children may overlap each other
// (parallel graph builds under one experiment), so the covered part is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[int]time.Duration {
	kids := make(map[int][]span)
	for _, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		covered, edge := time.Duration(0), s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerOf is the module a span name belongs to ("graph.build" → "graph").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// ledger sums, per span name, the self time and the duration of the
// spans that descend from a root named rootName (the timed sections),
// and returns the total duration of those roots next to them. The roots'
// own self time is kept under rootName: it is the time no layer call
// covers.
func ledger(spans []span, rootName string) (selfByName, durByName map[string]time.Duration, total time.Duration) {
	self := selfTimes(spans)
	under := make(map[int]bool)
	selfByName = make(map[string]time.Duration)
	durByName = make(map[string]time.Duration)
	// Spans are appended in begin order, so a parent precedes its children.
	for _, s := range spans {
		switch {
		case s.Name == rootName:
			total += s.dur()
		case !under[s.Parent]:
			continue
		}
		under[s.ID] = true
		selfByName[s.Name] += self[s.ID]
		durByName[s.Name] += s.dur()
	}
	return selfByName, durByName, total
}

// layerTotals folds a by-name ledger into per-layer self time.
func layerTotals(byName map[string]time.Duration) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for name, d := range byName {
		out[layerOf(name)] += d
	}
	return out
}

// chromeTrace is the Chrome trace-event file (chrome://tracing,
// ui.perfetto.dev): complete events in microseconds, one process per
// workload, plus each workload's layer self times.
type chromeTrace struct {
	TraceEvents []chromeEvent             `json:"traceEvents"`
	Ledger      map[string]map[string]any `json:"otherData"`
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// add appends one workload's spans as process pid.
func (c *chromeTrace) add(pid int, workload string, spans []span) {
	c.TraceEvents = append(c.TraceEvents, chromeEvent{
		Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": workload},
	})
	for _, s := range spans {
		c.TraceEvents = append(c.TraceEvents, chromeEvent{
			Name: s.Name, Cat: layerOf(s.Name), Ph: "X",
			Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
			Pid: pid, Tid: s.Lane,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "rep": s.Rep},
		})
	}
	byName, _, total := ledger(spans, timedSpan)
	entry := map[string]any{"timed_s": total.Seconds()}
	for layer, d := range layerTotals(byName) {
		entry[layer+".self_s"] = d.Seconds()
	}
	if c.Ledger == nil {
		c.Ledger = make(map[string]map[string]any)
	}
	c.Ledger[workload] = entry
}

func (c *chromeTrace) write(w io.Writer) error {
	return json.NewEncoder(w).Encode(c)
}
