package main

import (
	"encoding/json"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	ID     int
	Parent int // -1 for a root
	Lane   int // 0 = the benchmark's main flow, 1.. = load-generator clients
	Name   string
	Start  time.Duration // since the recorder's epoch
	End    time.Duration
}

// recorder is the benchmark's own in-memory span recorder. Spans are kept in
// memory and written out when the run ends. A nil recorder is the tracing-off
// state: timed still measures, nothing is recorded.
type recorder struct {
	run   string // identifier shared by every span of the run
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int              // open spans of lane 0
	allocs map[string]float64 // layer -> MB allocated inside its timed calls
}

func newRecorder(run string) *recorder {
	return &recorder{run: run, epoch: time.Now(), allocs: make(map[string]float64)}
}

// begin opens a span on the main lane under the innermost open span and
// returns the function that closes it.
func (r *recorder) begin(name string) func() {
	if r == nil {
		return func() {}
	}
	r.mu.Lock()
	parent := -1
	if len(r.stack) > 0 {
		parent = r.stack[len(r.stack)-1]
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(r.epoch)})
	r.stack = append(r.stack, id)
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		r.spans[id].End = time.Since(r.epoch)
		r.stack = r.stack[:len(r.stack)-1]
		r.mu.Unlock()
	}
}

// current returns the innermost open main-lane span, the parent for spans
// recorded from other goroutines.
func (r *recorder) current() int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// add records a completed span from a load-generator goroutine.
func (r *recorder) add(lane, parent int, name string, start, end time.Time) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{
		ID: len(r.spans), Parent: parent, Lane: lane, Name: name,
		Start: start.Sub(r.epoch), End: end.Sub(r.epoch),
	})
	r.mu.Unlock()
}

// timed runs fn, returns its wall-clock in seconds and, when tracing is on,
// records a span named name and charges the bytes fn allocated to the layer
// the name starts with ("txn.scan" -> "txn").
func (r *recorder) timed(name string, fn func() error) (float64, error) {
	if r == nil {
		t0 := time.Now()
		err := fn()
		return time.Since(t0).Seconds(), err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := r.begin(name)
	t0 := time.Now()
	err := fn()
	secs := time.Since(t0).Seconds()
	end()
	runtime.ReadMemStats(&after)
	if layer, _, ok := strings.Cut(name, "."); ok {
		r.mu.Lock()
		r.allocs[layer] += float64(after.TotalAlloc-before.TotalAlloc) / 1e6
		r.mu.Unlock()
	}
	return secs, err
}

// selfTimes returns, per span, its duration minus the part of that interval
// its child spans cover (children on client lanes may overlap each other, so
// the union is taken).
func (r *recorder) selfTimes() []time.Duration {
	children := make(map[int][]int)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	self := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return r.spans[kids[i]].Start < r.spans[kids[j]].Start })
		covered, hi := time.Duration(0), s.Start
		for _, k := range kids {
			lo, end := r.spans[k].Start, r.spans[k].End
			if lo < hi {
				lo = hi
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = (s.End - s.Start) - covered
	}
	return self
}

// spanRollup aggregates every span of one name.
type spanRollup struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

func (r *recorder) rollups() []spanRollup {
	if r == nil {
		return nil
	}
	self := r.selfTimes()
	byName := make(map[string]*spanRollup)
	for _, s := range r.spans {
		ru := byName[s.Name]
		if ru == nil {
			ru = &spanRollup{Name: s.Name}
			byName[s.Name] = ru
		}
		ru.Count++
		ru.TotalS += (s.End - s.Start).Seconds()
		ru.SelfS += self[s.ID].Seconds()
	}
	out := make([]spanRollup, 0, len(byName))
	for _, ru := range byName {
		out = append(out, *ru)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// traceEvent is one Chrome trace_event "complete" event.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeTrace writes the spans as a Chrome trace_event file.
func (r *recorder) writeTrace(path string) error {
	self := r.selfTimes()
	events := make([]traceEvent, 0, len(r.spans))
	for _, s := range r.spans {
		events = append(events, traceEvent{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Args: map[string]any{
				"id": s.ID, "parent": s.Parent, "run": r.run,
				"self_us": float64(self[s.ID]) / 1e3,
			},
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
