package obs

// Cross-node trace aggregation: a mesh worker exports its completed spans as
// SpanRecords, ships them over the fabric, and the coordinator re-records
// them (clock-rebased) on its own tracer — producing one merged Chrome trace
// with a per-node track group. The export watermark makes shipping
// incremental: each batch carries only spans recorded since the last one.

// SpanRecord is the portable form of one completed span: everything needed
// to re-record it on another tracer's timeline. Start and Dur are
// nanoseconds on the originating tracer's clock (Now); mapping them onto the
// receiving tracer's clock is the caller's job (internal/driver estimates
// the offset between the two from the protocol's own round trips).
type SpanRecord struct {
	Name       string
	Node, Lane int32
	Start, Dur int64
	Args       []Arg
}

// TrackName names one (node, lane) track, the portable form of a
// SetThreadName call.
type TrackName struct {
	Node, Lane int32
	Name       string
}

// ExportSince returns copies of the spans recorded at index from onward,
// plus the new watermark to pass next time. Args slices are copied, so the
// records stay valid while the tracer keeps recording.
func (t *Tracer) ExportSince(from int) ([]SpanRecord, int) {
	if t == nil {
		return nil, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if from < 0 {
		from = 0
	}
	if from >= len(t.spans) {
		return nil, len(t.spans)
	}
	out := make([]SpanRecord, 0, len(t.spans)-from)
	for _, sp := range t.spans[from:] {
		rec := SpanRecord{
			Name: sp.name, Node: sp.node, Lane: sp.lane,
			Start: sp.start, Dur: sp.dur,
		}
		if len(sp.args) > 0 {
			rec.Args = append([]Arg(nil), sp.args...)
		}
		out = append(out, rec)
	}
	return out, len(t.spans)
}

// Record appends an already-completed span — the ingest half of cross-node
// trace aggregation. The buffer cap applies exactly as for locally recorded
// spans; overflow is counted in Dropped.
func (t *Tracer) Record(rec SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if len(t.spans) >= maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, span{
			name: rec.Name, node: rec.Node, lane: rec.Lane,
			start: rec.Start, dur: rec.Dur, args: rec.Args,
		})
	}
	t.mu.Unlock()
}

// Tracks returns every named track, the portable form of the thread-name
// metadata, ordered by (node, lane).
func (t *Tracer) Tracks() []TrackName {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	set := make(map[track]bool, len(t.threads))
	names := make(map[track]string, len(t.threads))
	for k, v := range t.threads {
		set[k] = true
		names[k] = v
	}
	t.mu.Unlock()
	out := make([]TrackName, 0, len(set))
	for _, tr := range sortedTracks(set) {
		out = append(out, TrackName{Node: tr.node, Lane: tr.lane, Name: names[tr]})
	}
	return out
}

// AddDropped folds a remote tracer's dropped-span count into this tracer's
// tally, so the merged trace's Dropped covers the whole cluster. Callers
// ship cumulative counts and add only the delta.
func (t *Tracer) AddDropped(n int64) {
	if t == nil || n <= 0 {
		return
	}
	t.mu.Lock()
	t.dropped += n
	t.mu.Unlock()
}
