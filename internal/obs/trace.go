// Package obs is the observability substrate the rest of the repo threads
// through: a lightweight phase-span tracer exporting Chrome trace_event JSON
// (one timeline row per node, viewable in Perfetto or chrome://tracing) and a
// counter/gauge/histogram registry exposing Prometheus text format.
//
// Both halves are nil-safe: every method on a nil *Tracer, nil *Registry or
// zero Span is a no-op, so instrumented code paths carry no conditionals and
// — crucially for the mining hot path — no allocations when observability is
// switched off.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// defaultSpanCap preallocates room for this many completed spans so
// steady-state tracing does not grow the buffer pass by pass.
const defaultSpanCap = 4096

// maxSpans bounds the trace buffer; spans beyond it are counted but dropped,
// keeping a pathological run from holding the whole timeline in memory.
const maxSpans = 1 << 20

// Tracer records completed spans on a shared, mutex-guarded buffer. Tracks
// are addressed as (node, lane): node maps to the trace's pid (one process
// group per mining node), lane to the tid within it (0 = the node's driver
// goroutine, 1..W its scan workers, W+1 the count-phase receiver).
type Tracer struct {
	start time.Time

	mu      sync.Mutex
	spans   []span
	dropped int64
	threads map[track]string // (node, lane) -> display name
}

type track struct {
	node, lane int32
}

type span struct {
	name       string
	node, lane int32
	start, dur int64 // nanoseconds since Tracer start
	args       []Arg
}

// Arg is one integer key/value annotation attached to a span; it lands in
// the trace event's "args" object and in run-report rollups.
type Arg struct {
	Key string
	Val int64
}

// NewTracer starts a tracer; its clock zero is the call time.
func NewTracer() *Tracer {
	return &Tracer{
		start:   time.Now(),
		spans:   make([]span, 0, defaultSpanCap),
		threads: make(map[track]string),
	}
}

// Enabled reports whether spans are being recorded; callers use it to skip
// span-name formatting when tracing is off.
func (t *Tracer) Enabled() bool { return t != nil }

func (t *Tracer) since() int64 {
	return int64(time.Since(t.start))
}

// SetThreadName names a (node, lane) track for the trace viewer.
func (t *Tracer) SetThreadName(node, lane int, name string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.threads[track{int32(node), int32(lane)}] = name
	t.mu.Unlock()
}

// Begin opens a span on the given track. The returned Span is recorded when
// End is called; a nil tracer returns an inert Span.
func (t *Tracer) Begin(node, lane int, name string) Span {
	if t == nil {
		return Span{}
	}
	return Span{t: t, name: name, node: int32(node), lane: int32(lane), start: t.since()}
}

// Span is an open interval on one track. The zero value (and any Span from a
// nil tracer) ignores every call.
type Span struct {
	t          *Tracer
	name       string
	node, lane int32
	start      int64
	args       []Arg
}

// Arg attaches an integer annotation to the span.
func (s *Span) Arg(key string, val int64) {
	if s.t == nil {
		return
	}
	s.args = append(s.args, Arg{Key: key, Val: val})
}

// End closes the span and records it.
func (s *Span) End() {
	if s.t == nil {
		return
	}
	t := s.t
	dur := t.since() - s.start
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, span{
			name: s.name, node: s.node, lane: s.lane,
			start: s.start, dur: dur, args: s.args,
		})
	}
	t.mu.Unlock()
	s.t = nil // double End is a no-op
}

// Dropped returns how many spans were discarded after the buffer cap.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// traceEvent is one entry of the Chrome trace_event format ("X" complete
// events for spans, "M" metadata events for track names).
type traceEvent struct {
	Name string           `json:"name"`
	Ph   string           `json:"ph"`
	Ts   float64          `json:"ts"` // microseconds
	Dur  float64          `json:"dur,omitempty"`
	Pid  int32            `json:"pid"`
	Tid  int32            `json:"tid"`
	Args map[string]int64 `json:"args,omitempty"`
}

// WriteTrace emits the recorded spans as Chrome trace_event JSON. Events are
// ordered by start time; pid is the node, tid the lane within it.
func (t *Tracer) WriteTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, `{"traceEvents":[],"displayTimeUnit":"ms"}`)
		return err
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	threads := make(map[track]string, len(t.threads))
	for k, v := range t.threads {
		threads[k] = v
	}
	t.mu.Unlock()

	sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })

	// Metadata: name every node (pid) and every track seen, so Perfetto
	// shows "node 3 / scan w1" instead of bare numbers.
	nodes := make(map[int32]bool)
	tracks := make(map[track]bool)
	for _, sp := range spans {
		nodes[sp.node] = true
		tracks[track{sp.node, sp.lane}] = true
	}
	for tr := range threads {
		nodes[tr.node] = true
		tracks[tr] = true
	}
	// Metadata args carry strings, which the integer Args field cannot;
	// they are marshaled via a dedicated struct.
	var events []traceEvent
	meta := make([]json.RawMessage, 0, len(nodes)+len(tracks))
	for _, n := range sortedInt32(nodes) {
		meta = append(meta, metaEvent("process_name", n, 0, fmt.Sprintf("node %d", n)))
	}
	for _, tr := range sortedTracks(tracks) {
		name := threads[tr]
		if name == "" {
			name = fmt.Sprintf("lane %d", tr.lane)
		}
		meta = append(meta, metaEvent("thread_name", tr.node, tr.lane, name))
	}
	for _, sp := range spans {
		ev := traceEvent{
			Name: sp.name, Ph: "X",
			Ts:  float64(sp.start) / 1e3,
			Dur: float64(sp.dur) / 1e3,
			Pid: sp.node, Tid: sp.lane,
		}
		if len(sp.args) > 0 {
			ev.Args = make(map[string]int64, len(sp.args))
			for _, a := range sp.args {
				ev.Args[a.Key] = a.Val
			}
		}
		events = append(events, ev)
	}

	// Assemble by hand so metadata events (string args) and span events
	// (integer args) can share the traceEvents array.
	raw := make([]json.RawMessage, 0, len(meta)+len(events))
	raw = append(raw, meta...)
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		raw = append(raw, b)
	}
	out := struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		DisplayTimeUnit string            `json:"displayTimeUnit"`
	}{raw, "ms"}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}

func metaEvent(name string, pid, tid int32, display string) json.RawMessage {
	b, _ := json.Marshal(struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Pid  int32  `json:"pid"`
		Tid  int32  `json:"tid"`
		Args struct {
			Name string `json:"name"`
		} `json:"args"`
	}{Name: name, Ph: "M", Pid: pid, Tid: tid, Args: struct {
		Name string `json:"name"`
	}{display}})
	return b
}

func sortedInt32(set map[int32]bool) []int32 {
	out := make([]int32, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sortedTracks(set map[track]bool) []track {
	out := make([]track, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].node != out[j].node {
			return out[i].node < out[j].node
		}
		return out[i].lane < out[j].lane
	})
	return out
}

// Rollup aggregates every recorded span of one name: how often it ran and
// how its wall time distributed — the per-phase summary a run report embeds.
type Rollup struct {
	Name    string  `json:"name"`
	Count   int64   `json:"count"`
	TotalMS float64 `json:"total_ms"`
	MinMS   float64 `json:"min_ms"`
	MaxMS   float64 `json:"max_ms"`
}

// Rollups aggregates the recorded spans by name, sorted by name.
func (t *Tracer) Rollups() []Rollup {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	byName := make(map[string]*Rollup)
	for _, sp := range t.spans {
		r := byName[sp.name]
		if r == nil {
			r = &Rollup{Name: sp.name, MinMS: float64(sp.dur) / 1e6}
			byName[sp.name] = r
		}
		ms := float64(sp.dur) / 1e6
		r.Count++
		r.TotalMS += ms
		if ms < r.MinMS {
			r.MinMS = ms
		}
		if ms > r.MaxMS {
			r.MaxMS = ms
		}
	}
	out := make([]Rollup, 0, len(byName))
	for _, r := range byName {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Spans returns the number of recorded spans.
func (t *Tracer) Spans() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
