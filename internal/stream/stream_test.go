package stream

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pgarm/internal/cumulate"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/itemset"
	"pgarm/internal/model"
	"pgarm/internal/txn"
)

// smallDataset generates a small-but-structured dataset: enough
// transactions for several checkpoints, a real hierarchy, and pattern skew.
func smallDataset(t testing.TB) *gen.Dataset {
	t.Helper()
	p := gen.Params{
		Name:            "stream-test",
		NumTxns:         800,
		AvgTxnSize:      6,
		AvgPatternSize:  3,
		NumPatterns:     60,
		NumItems:        240,
		Roots:           6,
		Fanout:          4,
		CorrelationMean: 0.5,
		CorruptionMean:  0.5,
		CorruptionSD:    0.1,
		Seed:            7,
	}
	ds, err := gen.Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return ds
}

// writeLog appends the dataset to a fresh log in batches ending at the given
// checkpoint boundaries, returning the end offset of each batch. A tiny
// segment threshold forces rotation so multi-segment logs are the norm.
func writeLog(t testing.TB, dir string, ds *gen.Dataset, checkpoints []int) []Offset {
	t.Helper()
	l, err := OpenLog(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatalf("open log: %v", err)
	}
	defer l.Close()
	offs := make([]Offset, 0, len(checkpoints))
	start := 0
	for _, end := range checkpoints {
		batch := make([]txn.Transaction, 0, end-start)
		for i := start; i < end; i++ {
			batch = append(batch, ds.DB.At(i))
		}
		if err := l.Append(batch); err != nil {
			t.Fatalf("append [%d,%d): %v", start, end, err)
		}
		if err := l.Sync(); err != nil {
			t.Fatalf("sync: %v", err)
		}
		offs = append(offs, l.End())
		start = end
	}
	return offs
}

func sliceDB(ds *gen.Dataset, lo, hi int) *txn.DB {
	db := &txn.DB{}
	for i := lo; i < hi; i++ {
		db.Append(ds.DB.At(i))
	}
	return db
}

// TestIncrementalBitIdentity is the correctness bar of the streaming
// subsystem: at every checkpoint, for every worker count and support level,
// the incremental result must be bit-identical (itemsets, counts, order) to
// a full batch re-mine over the whole log so far — including a round-trip
// of the carry-forward state, bound levels and all, through the snapshot
// codec between checkpoints.
func TestIncrementalBitIdentity(t *testing.T) {
	ds := smallDataset(t)
	checkpoints := []int{250, 400, 430, 520, 610, 700, 800} // deliberately uneven deltas
	dir := t.TempDir()
	offs := writeLog(t, dir, ds, checkpoints)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}

	carried := false // some round-tripped state carried a bound
	for _, workers := range []int{1, 2, 4} {
		for _, minsup := range []float64{0.05, 0.02} {
			cfg := MineConfig{MinSupport: minsup, Workers: workers}
			var prior *model.MiningState
			prev := 0
			prevOff := Offset{}
			for ci, end := range checkpoints {
				delta := sliceDB(ds, prev, end)
				res, state, stats, err := IncrementalMine(ds.Taxonomy, prior, r.Prefix(prevOff), delta, cfg)
				if err != nil {
					t.Fatalf("w=%d sup=%g ckpt=%d: incremental: %v", workers, minsup, ci, err)
				}
				full, err := cumulate.Mine(ds.Taxonomy, sliceDB(ds, 0, end), cumulate.Config{MinSupport: minsup})
				if err != nil {
					t.Fatalf("w=%d sup=%g ckpt=%d: full: %v", workers, minsup, ci, err)
				}
				if !reflect.DeepEqual(res.Large, full.Large) {
					t.Fatalf("w=%d sup=%g ckpt=%d: incremental diverged from full re-mine\nincremental: %v\nfull: %v",
						workers, minsup, ci, res.Large, full.Large)
				}
				if res.NumTxns != end || stats.TotalTxns != int64(end) || stats.DeltaTxns != int64(end-prev) {
					t.Fatalf("ckpt=%d: txn accounting off: res=%d stats=%+v", ci, res.NumTxns, stats)
				}
				if ci > 0 && stats.Candidates > 0 && stats.Recounted >= stats.Candidates {
					t.Fatalf("ckpt=%d: no FUP savings: recounted %d of %d candidates",
						ci, stats.Recounted, stats.Candidates)
				}
				// Round-trip the state through the snapshot codec between
				// checkpoints, exactly as the follower does.
				state.LogSeg, state.LogByte = offs[ci].Seg, offs[ci].Byte
				m := &model.Model{
					Meta:     model.Meta{NumTxns: int64(end), MinSupport: minsup},
					Taxonomy: ds.Taxonomy,
					Large:    res.Large,
					State:    state,
				}
				buf, err := model.Encode(m)
				if err != nil {
					t.Fatalf("ckpt=%d: encode state: %v", ci, err)
				}
				mr, err := model.NewReader(buf)
				if err != nil {
					t.Fatalf("ckpt=%d: reopen state: %v", ci, err)
				}
				prior, err = mr.State()
				if err != nil {
					t.Fatalf("ckpt=%d: decode state: %v", ci, err)
				}
				if prior == nil || !reflect.DeepEqual(prior, state) {
					t.Fatalf("ckpt=%d: state did not round-trip", ci)
				}
				carried = carried || numSets(prior.Bounds) > 0
				prev = end
				prevOff = offs[ci]
			}
		}
	}
	if !carried {
		t.Fatal("no checkpoint carried a bound through the snapshot codec")
	}
}

func numSets(levels [][]itemset.Counted) int {
	n := 0
	for _, level := range levels {
		n += len(level)
	}
	return n
}

// TestRecountedIsCandidatesAbsentFromBorder pins the seeding itself: a
// candidate the prior border holds must be seeded, not recounted. A seeding
// miss would only send that candidate to the prefix rescan, which keeps the
// result bit-identical, so TestIncrementalBitIdentity cannot see one. Here
// every checkpoint's Candidates must equal the sets of its own state's
// levels and bound levels, Pruned the sets of its bound levels, and
// Recounted the sets of its levels (the counted candidates) absent from the
// prior state's level k, found with a map of the sets' printed form.
func TestRecountedIsCandidatesAbsentFromBorder(t *testing.T) {
	ds := smallDataset(t)
	checkpoints := []int{250, 400, 430, 800}
	dir := t.TempDir()
	offs := writeLog(t, dir, ds, checkpoints)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	var prior *model.MiningState
	prev, prevOff := 0, Offset{}
	seededAny, prunedAny := false, false
	for ci, end := range checkpoints {
		_, state, stats, err := IncrementalMine(ds.Taxonomy, prior, r.Prefix(prevOff), sliceDB(ds, prev, end), MineConfig{MinSupport: 0.02})
		if err != nil {
			t.Fatalf("ckpt=%d: %v", ci, err)
		}
		counted, absent := 0, 0
		for i, level := range state.Levels {
			border := map[string]bool{}
			if prior != nil && i < len(prior.Levels) {
				for _, c := range prior.Levels[i] {
					border[fmt.Sprint(c.Items)] = true
				}
			}
			for _, c := range level {
				counted++
				if !border[fmt.Sprint(c.Items)] {
					absent++
				}
			}
		}
		pruned := numSets(state.Bounds)
		if stats.Candidates != counted+pruned || stats.Recounted != absent || stats.Pruned != pruned {
			t.Errorf("ckpt=%d: %d candidates, %d recounted, %d pruned; the levels hold %d, %d of them absent from the prior border, the bound levels %d",
				ci, stats.Candidates, stats.Recounted, stats.Pruned, counted, absent, pruned)
		}
		seededAny = seededAny || absent < counted
		prunedAny = prunedAny || pruned > 0
		prior, prev, prevOff = state, end, offs[ci]
	}
	if !seededAny || !prunedAny {
		t.Fatalf("seeded a candidate from its prior border: %v; pruned one: %v", seededAny, prunedAny)
	}
}

// TestBoundsAreSound checks every bound level against brute force over
// uneven checkpoints. Each bound must be at least its set's closure support
// over the whole log so far, and below the minimum count, so no bounded set
// is large. Each must equal a reference recomputed from maps over the prior
// state — the least of the set's carried bound, its items' counts (k = 2)
// and its (k-1)-subsets' border counts — plus its delta support, and every
// counted set absent from the prior border must be one that reference could
// not prune. The run must prune a set at two consecutive checkpoints
// through its carried bound, and a set at k >= 3 through a subset's count.
func TestBoundsAreSound(t *testing.T) {
	ds := smallDataset(t)
	checkpoints := []int{200, 260, 330, 350, 420, 500, 560, 640, 700, 800}
	dir := t.TempDir()
	offs := writeLog(t, dir, ds, checkpoints)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	// tids[x] flags the transactions whose ancestor closure holds item x.
	words := (ds.DB.Len() + 63) / 64
	tids := make([][]uint64, ds.Taxonomy.NumItems())
	for x := range tids {
		tids[x] = make([]uint64, words)
	}
	for i := 0; i < ds.DB.Len(); i++ {
		for _, x := range ds.Taxonomy.ExtendTransaction(nil, ds.DB.At(i).Items) {
			tids[x][i/64] |= 1 << (i % 64)
		}
	}
	support := func(s []item.Item, lo, hi int) int64 {
		n := 0
		for w := lo / 64; w <= (hi-1)/64; w++ {
			word := ^uint64(0)
			for _, x := range s {
				word &= tids[x][w]
			}
			if w == lo/64 {
				word &= ^uint64(0) << (lo % 64)
			}
			if w == (hi-1)/64 {
				word &= ^uint64(0) >> (63 - (hi-1)%64)
			}
			n += bits.OnesCount64(word)
		}
		return int64(n)
	}
	const minsup = 0.02
	var prior *model.MiningState
	prev, prevOff := 0, Offset{}
	viaCarried, viaSubset := 0, 0
	for ci, end := range checkpoints {
		_, state, _, err := IncrementalMine(ds.Taxonomy, prior, r.Prefix(prevOff), sliceDB(ds, prev, end), MineConfig{MinSupport: minsup})
		if err != nil {
			t.Fatalf("ckpt=%d: %v", ci, err)
		}
		minCount := cumulate.MinCount(minsup, end)
		if prior == nil {
			if n := numSets(state.Bounds); n != 0 {
				t.Fatalf("ckpt=0: %d sets bounded with no prefix to bound", n)
			}
			prior, prev, prevOff = state, end, offs[ci]
			continue
		}
		border, carried := countsByKey(prior.Levels), countsByKey(prior.Bounds)
		for _, level := range state.Bounds {
			for _, c := range level {
				if got := support(c.Items, 0, end); got > c.Count || c.Count >= minCount {
					t.Fatalf("ckpt=%d: %v bounded by %d, support %d, min count %d", ci, c.Items, c.Count, got, minCount)
				}
				own, others := refBound(prior, border, carried, c.Items)
				if want := min(own, others) + support(c.Items, prev, end); c.Count != want {
					t.Fatalf("ckpt=%d: %v bounded by %d, reference %d", ci, c.Items, c.Count, want)
				}
				if own < others {
					viaCarried++
				}
				if len(c.Items) >= 3 && others < own {
					viaSubset++
				}
			}
		}
		for _, level := range state.Levels {
			for _, c := range level {
				if _, seeded := border[itemset.Key(c.Items)]; seeded {
					continue
				}
				own, others := refBound(prior, border, carried, c.Items)
				if u := min(own, others); u != noBound && u+support(c.Items, prev, end) < minCount {
					t.Fatalf("ckpt=%d: %v rescanned, though bound %d plus its delta support is below %d", ci, c.Items, u, minCount)
				}
			}
		}
		prior, prev, prevOff = state, end, offs[ci]
	}
	t.Logf("pruned through a carried bound %d times, at k >= 3 through a subset %d times", viaCarried, viaSubset)
	if viaCarried == 0 || viaSubset == 0 {
		t.Fatalf("pruned through a carried bound %d times, at k >= 3 through a subset %d times; want both > 0", viaCarried, viaSubset)
	}
}

// countsByKey maps every set of a state's levels, by its packed key, to
// its count.
func countsByKey(levels [][]itemset.Counted) map[string]int64 {
	m := map[string]int64{}
	for _, level := range levels {
		for _, c := range level {
			m[itemset.Key(c.Items)] = c.Count
		}
	}
	return m
}

// refBound is seed's bound on s, recomputed from maps: own is s's carried
// bound, others the least of its items' counts (k = 2) and its
// (k-1)-subsets' border counts; noBound where the prior state has none.
func refBound(prior *model.MiningState, border, carried map[string]int64, s []item.Item) (own, others int64) {
	own, others = noBound, noBound
	if b, ok := carried[itemset.Key(s)]; ok {
		own = b
	}
	if len(s) == 2 {
		others = min(prior.ItemCounts[s[0]], prior.ItemCounts[s[1]])
	}
	for drop := range s {
		sub := append(append([]item.Item{}, s[:drop]...), s[drop+1:]...)
		if c, ok := border[itemset.Key(sub)]; ok {
			others = min(others, c)
		}
	}
	return own, others
}

// TestResumeAcrossMinSupportAndMaxK resumes each checkpoint from a state
// mined at a different minimum support and MaxK, lower and higher, through
// the snapshot codec: pruning reads only the prior state's counts, so every
// checkpoint must still equal cumulate.Mine at its own settings.
func TestResumeAcrossMinSupportAndMaxK(t *testing.T) {
	ds := smallDataset(t)
	steps := []struct {
		end    int
		minsup float64
		maxK   int
	}{{300, 0.05, 2}, {420, 0.02, 0}, {560, 0.04, 3}, {640, 0.015, 0}, {800, 0.03, 2}}
	checkpoints := make([]int, len(steps))
	for i, st := range steps {
		checkpoints[i] = st.end
	}
	dir := t.TempDir()
	offs := writeLog(t, dir, ds, checkpoints)
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	var prior *model.MiningState
	prev, prevOff := 0, Offset{}
	pruned := 0
	for ci, st := range steps {
		res, state, stats, err := IncrementalMine(ds.Taxonomy, prior, r.Prefix(prevOff), sliceDB(ds, prev, st.end),
			MineConfig{MinSupport: st.minsup, MaxK: st.maxK, Workers: 2})
		if err != nil {
			t.Fatalf("ckpt=%d: %v", ci, err)
		}
		full, err := cumulate.Mine(ds.Taxonomy, sliceDB(ds, 0, st.end), cumulate.Config{MinSupport: st.minsup, MaxK: st.maxK})
		if err != nil {
			t.Fatalf("ckpt=%d: full: %v", ci, err)
		}
		if !reflect.DeepEqual(res.Large, full.Large) {
			t.Fatalf("ckpt=%d (minsup %g, MaxK %d): incremental diverged from full re-mine", ci, st.minsup, st.maxK)
		}
		if ci > 0 {
			pruned += stats.Pruned
		}
		buf, err := model.Encode(&model.Model{Taxonomy: ds.Taxonomy, Large: res.Large, State: state})
		if err != nil {
			t.Fatalf("ckpt=%d: encode: %v", ci, err)
		}
		mr, err := model.NewReader(buf)
		if err != nil {
			t.Fatalf("ckpt=%d: reopen: %v", ci, err)
		}
		if prior, err = mr.State(); err != nil {
			t.Fatalf("ckpt=%d: decode state: %v", ci, err)
		}
		prev, prevOff = st.end, offs[ci]
	}
	if pruned == 0 {
		t.Fatal("no resumed checkpoint pruned a candidate")
	}
}

// TestLogRoundtripRotationReopen checks that a multi-segment log replays
// exactly what was appended, across writer reopens.
func TestLogRoundtripRotationReopen(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	writeLog(t, dir, ds, []int{300, 600})

	// Reopen for appending: recovery must land exactly at the end.
	l, err := OpenLog(dir, Options{SegmentBytes: 2048})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if l.Len() != 600 {
		t.Fatalf("reopened log has %d txns, want 600", l.Len())
	}
	if want := ds.DB.At(599).TID + 1; l.NextTID() != want {
		t.Fatalf("reopened NextTID %d, want %d", l.NextTID(), want)
	}
	var rest []txn.Transaction
	for i := 600; i < 800; i++ {
		rest = append(rest, ds.DB.At(i))
	}
	if err := l.Append(rest); err != nil {
		t.Fatalf("append after reopen: %v", err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatalf("open reader: %v", err)
	}
	i := 0
	end, err := r.ReadFrom(Offset{}, func(tr txn.Transaction) error {
		want := ds.DB.At(i)
		if tr.TID != want.TID || !reflect.DeepEqual(append([]item.Item{}, tr.Items...), want.Items) {
			t.Fatalf("txn %d mismatch: got %v want %v", i, tr, want)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if i != 800 || end.Txns != 800 {
		t.Fatalf("replayed %d txns, offset %+v; want 800", i, end)
	}
	if end.Seg == 0 {
		t.Fatalf("expected rotation to produce multiple segments, still on segment 0")
	}

	// Prefix scanners must deliver exact counts, repeatedly and concurrently.
	ps := r.Prefix(Offset{Txns: 357})
	if ps.Len() != 357 {
		t.Fatalf("prefix len %d", ps.Len())
	}
	for round := 0; round < 2; round++ {
		n := 0
		if err := ps.Scan(func(tr txn.Transaction) error { n++; return nil }); err != nil {
			t.Fatalf("prefix scan: %v", err)
		}
		if n != 357 {
			t.Fatalf("prefix delivered %d txns, want 357", n)
		}
	}
}

// TestReadFromTailing checks the tailing contract: a reader at the end of
// the log sees nothing until more is appended, a torn in-flight tail is
// waited out rather than erroring, and replay resumes at the returned
// offset without loss or duplication.
func TestReadFromTailing(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	batch := func(lo, hi int) []txn.Transaction {
		var b []txn.Transaction
		for i := lo; i < hi; i++ {
			b = append(b, ds.DB.At(i))
		}
		return b
	}
	if err := l.Append(batch(0, 100)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	off, err := r.ReadFrom(Offset{}, func(txn.Transaction) error { n++; return nil })
	if err != nil || n != 100 {
		t.Fatalf("first read: n=%d err=%v", n, err)
	}

	// Nothing new: same offset, no txns, no error.
	m := 0
	off2, err := r.ReadFrom(off, func(txn.Transaction) error { m++; return nil })
	if err != nil || m != 0 || off2 != off {
		t.Fatalf("idle read: m=%d off2=%+v err=%v", m, off2, err)
	}

	// Simulate an in-flight frame: append a few garbage bytes to the last
	// segment. The tailer must wait at the frame boundary, not error.
	segPath := filepath.Join(dir, segName(off.Seg))
	f, err := os.OpenFile(segPath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0, 0}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	off3, err := r.ReadFrom(off, func(txn.Transaction) error { return nil })
	if err != nil || off3 != off {
		t.Fatalf("torn-tail read: off3=%+v err=%v", off3, err)
	}
	// Writer restart truncates the torn bytes and appends more.
	l.Close()
	l, err = OpenLog(dir, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatalf("reopen over torn tail: %v", err)
	}
	if err := l.Append(batch(100, 180)); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	n = 0
	off4, err := r.ReadFrom(off, func(tr txn.Transaction) error {
		if want := ds.DB.At(100 + n); tr.TID != want.TID {
			t.Fatalf("resumed txn %d has TID %d, want %d", n, tr.TID, want.TID)
		}
		n++
		return nil
	})
	if err != nil || n != 80 || off4.Txns != 180 {
		t.Fatalf("resume read: n=%d off=%+v err=%v", n, off4, err)
	}
}

// TestCrashTruncationRecovery truncates a finished log at every byte of its
// last segment: OpenLog must always recover to a clean frame boundary (a
// prefix of the appended transactions, possibly empty) and accept further
// appends that a reader then sees seamlessly.
func TestCrashTruncationRecovery(t *testing.T) {
	ds := smallDataset(t)
	src := t.TempDir()
	l, err := OpenLog(src, Options{SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var txns []txn.Transaction
	for i := 0; i < 40; i++ {
		txns = append(txns, ds.DB.At(i))
	}
	// Three frames on one segment so truncation crosses frame boundaries.
	for lo := 0; lo < 40; lo += 15 {
		hi := lo + 15
		if hi > 40 {
			hi = 40
		}
		if err := l.Append(txns[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	segPath := filepath.Join(src, segName(0))
	full, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}

	for cut := 0; cut <= len(full); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		l2, err := OpenLog(dir, Options{SegmentBytes: 1 << 20})
		if err != nil {
			t.Fatalf("cut=%d: recovery failed: %v", cut, err)
		}
		got := int(l2.Len())
		if got != 0 && got != 15 && got != 30 && got != 40 {
			t.Fatalf("cut=%d: recovered %d txns, not a frame boundary", cut, got)
		}
		// The log must accept appends right where it recovered to.
		if err := l2.Append([]txn.Transaction{ds.DB.At(got)}); err != nil {
			t.Fatalf("cut=%d: append after recovery: %v", cut, err)
		}
		if err := l2.Close(); err != nil {
			t.Fatal(err)
		}
		r, err := OpenReader(dir)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		_, err = r.ReadFrom(Offset{}, func(tr txn.Transaction) error {
			if want := ds.DB.At(n); tr.TID != want.TID {
				t.Fatalf("cut=%d: txn %d TID %d, want %d", cut, n, tr.TID, want.TID)
			}
			n++
			return nil
		})
		if err != nil {
			t.Fatalf("cut=%d: replay after recovery: %v", cut, err)
		}
		if n != got+1 {
			t.Fatalf("cut=%d: replayed %d, want %d", cut, n, got+1)
		}
	}
}

// TestLogRejectsCorruption flips one payload byte in a complete interior
// frame: both the writer's recovery and the reader must refuse it.
func TestLogRejectsCorruption(t *testing.T) {
	ds := smallDataset(t)
	dir := t.TempDir()
	writeLog(t, dir, ds, []int{200})
	segPath := filepath.Join(dir, segName(0))
	b, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	b[headerSize+frameHeaderSize+3] ^= 0xff
	if err := os.WriteFile(segPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenReader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadFrom(Offset{}, func(txn.Transaction) error { return nil }); err == nil {
		t.Fatal("reader accepted corrupt frame")
	}
}

// TestAppendValidation: the writer refuses descending TIDs and
// non-canonical baskets.
func TestAppendValidation(t *testing.T) {
	dir := t.TempDir()
	l, err := OpenLog(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ok := []txn.Transaction{{TID: 5, Items: []item.Item{1, 2, 9}}}
	if err := l.Append(ok); err != nil {
		t.Fatalf("valid append: %v", err)
	}
	if err := l.Append([]txn.Transaction{{TID: 5, Items: []item.Item{1}}}); err == nil {
		t.Fatal("accepted duplicate TID")
	}
	if err := l.Append([]txn.Transaction{{TID: 9, Items: []item.Item{3, 3}}}); err == nil {
		t.Fatal("accepted non-canonical basket")
	}
	if err := l.Append([]txn.Transaction{{TID: 9, Items: nil}}); err == nil {
		t.Fatal("accepted empty basket")
	}
}
