package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pgarm/internal/cumulate"
	"pgarm/internal/fpg"
	"pgarm/internal/gen"
	"pgarm/internal/item"
	"pgarm/internal/model"
	"pgarm/internal/stream"
	"pgarm/internal/txn"
)

// streamEnv is the stream-serve workload's state: a transaction log being
// appended to, a follower tailing it with FUP carry-forward state, and a
// running server the follower hot-swaps snapshots into.
type streamEnv struct {
	w         *workload
	dir       string
	modelPath string
	ds        *gen.Dataset
	txns      []txn.Transaction
	log       *stream.Log
	reader    *stream.Reader
	fe        *frontend

	next  int // first transaction not yet appended
	off   stream.Offset
	state *model.MiningState
	last  *cumulate.Result
}

func (e *streamEnv) close() {
	if e.fe != nil {
		e.fe.close()
	}
	if e.log != nil {
		e.log.Close()
	}
	os.RemoveAll(e.dir)
}

// checkpoint is one append -> servable cycle and what it cost.
type checkpoint struct {
	AppendS, ReadS, MineS, TotalS, AllocMB float64
	Stats                                  *stream.CheckpointStats
	Servable                               *servable
}

// advance appends transactions [e.next, hi) to the log and runs the
// follower's checkpoint over them: tail the log, delta-mine against the
// carried state, derive rules, write the snapshot, hot-swap the server.
func (e *streamEnv) advance(rec *recorder, hi int) (*checkpoint, error) {
	cp := &checkpoint{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := rec.begin("stream.checkpoint")
	defer end()
	t0 := time.Now()
	var err error
	cp.AppendS, err = rec.timed("stream.append", func() error {
		if err := e.log.Append(e.txns[e.next:hi]); err != nil {
			return err
		}
		return e.log.Sync()
	})
	if err != nil {
		return nil, err
	}
	var pending []txn.Transaction
	var off stream.Offset
	cp.ReadS, err = rec.timed("stream.read", func() (err error) {
		off, err = e.reader.ReadFrom(e.off, func(t txn.Transaction) error {
			pending = append(pending, txn.Transaction{TID: t.TID, Items: item.Clone(t.Items)})
			return nil
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	var state *model.MiningState
	cp.MineS, err = rec.timed("stream.incremental", func() (err error) {
		e.last, state, cp.Stats, err = stream.IncrementalMine(e.ds.Taxonomy, e.state, e.reader.Prefix(e.off), txn.NewDB(pending),
			stream.MineConfig{MinSupport: e.w.MinSup, Workers: workers})
		return err
	})
	if err != nil {
		return nil, err
	}
	state.LogSeg, state.LogByte = off.Seg, off.Byte
	meta := model.Meta{
		Dataset: e.ds.Params.Name, Algorithm: "Cumulate-FUP", NumTxns: int64(e.last.NumTxns),
		MinSupport: e.w.MinSup, MinConfidence: e.w.MinConf,
	}
	cp.Servable, err = buildServable(rec, e.ds.Taxonomy, e.last, e.last.Large, meta, state, e.modelPath, e.fe.srv)
	if err != nil {
		return nil, err
	}
	cp.TotalS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	cp.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	e.next, e.off, e.state = hi, off, state
	return cp, nil
}

// setupStream generates the transactions, seeds a fresh log with the first
// part of them and brings a server up on the first full checkpoint.
func (w *workload) setupStream(workDir string, b budget, seed int64, deltas int, rec *recorder, ms *metricSet) (*streamEnv, error) {
	dir, err := os.MkdirTemp(workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	e := &streamEnv{w: w, dir: dir, modelPath: filepath.Join(dir, "model.pgarm")}
	delta := w.deltaTxns(b)
	secs, err := rec.timed("gen.generate", func() (err error) {
		e.ds, err = w.generate(b, seed, deltas*delta)
		return err
	})
	if err != nil {
		e.close()
		return nil, err
	}
	ms.set("gen.generate_s", secs)
	ms.set("gen.txns", float64(e.ds.DB.Len()))
	e.txns = dbTxns(e.ds.DB)

	// A small segment cap keeps rotation on the measured path.
	if e.log, err = stream.OpenLog(filepath.Join(dir, "log"), stream.Options{SegmentBytes: 1 << 20}); err != nil {
		e.close()
		return nil, err
	}
	if e.reader, err = stream.OpenReader(filepath.Join(dir, "log")); err != nil {
		e.close()
		return nil, err
	}
	e.fe = newFrontend(nil, e.modelPath)
	if _, err := e.advance(rec, len(e.txns)-deltas*delta); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (w *workload) deltaTxns(b budget) int {
	return max(int(float64(w.DeltaTxns)*b.ScaleFactor), 100)
}

// checkLog verifies the follower's last checkpoint against a from-scratch
// mine of the whole log by the other miner family.
func (e *streamEnv) checkLog(t *tally) {
	ref, err := fpg.Mine(e.ds.Taxonomy, []txn.Scanner{e.reader.Prefix(e.off)}, fpg.Config{MinSupport: e.w.MinSup, Workers: workers})
	if err == nil && digest(ref.Large) != digest(e.last.Large) {
		err = fmt.Errorf("%s: last checkpoint differs from fpg.Mine over the whole log", e.w.Name)
	}
	t.check(err)
}

// runStream is an untraced run of stream-serve: every end-to-end metric.
// mine_s is the incremental mine of one delta, pipeline_s the whole append ->
// servable freshness of one delta.
func (w *workload) runStream(workDir string, b budget, seed int64) (*runResult, error) {
	t := &tally{}
	e2e := newMetricSet(endToEndDefs)

	env, err := timeSetups(b, e2e, func() (*streamEnv, error) {
		return w.setupStream(workDir, b, seed, b.MaxDeltas, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()
	t.check(nil)

	var mineS, pipelineS, allocMB, ref []float64
	delta := w.deltaTxns(b)
	deadline := b.deadline(streamShare)
	for env.next < len(env.txns) && (len(mineS) < b.MinReps || time.Now().Before(deadline)) {
		runtime.GC() // as before a mining rep
		ref = append(ref, hostRef())
		cp, err := env.advance(nil, env.next+delta)
		if err != nil {
			return nil, err
		}
		t.check(nil)
		mineS = append(mineS, cp.MineS)
		pipelineS = append(pipelineS, cp.TotalS)
		allocMB = append(allocMB, cp.AllocMB)
	}
	e2e.setAtHostSpeed("mine_s", mineS, hostSpeed(ref))
	e2e.setAtHostSpeed("pipeline_s", pipelineS, hostSpeed(ref))
	e2e.setSamples("alloc_mb", allocMB)

	sv := serveMeasured(t, e2e, env.fe, newBasketMix(env.txns[:env.next], seed), b, 1-streamShare, w.ReloadEvery)

	env.checkLog(t)
	fmt.Fprintf(os.Stderr, "%s: %d checkpoints to %d txns, %d rules, %d serving rounds, %d reloads\n",
		w.Name, len(mineS), env.next, len(env.fe.srv.Holder().Get().Rules()), len(sv.QPS), sv.Reloads)
	return t.result(e2e, nil), nil
}

// runStreamTraced is the traced run of stream-serve: a fixed number of
// deltas, so its counts repeat exactly, with a span around every stage.
func (w *workload) runStreamTraced(workDir string, b budget, seed int64, tracePath string) (*runResult, error) {
	t := &tally{}
	rec := newRecorder(fmt.Sprintf("%s-%d", w.Name, seed))
	ms := newMetricSet(perLayerDefs)
	deltas := min(w.Deltas, b.MaxDeltas)

	end := rec.begin("setup")
	env, err := w.setupStream(workDir, b, seed, deltas, rec, ms)
	end()
	if err != nil {
		return nil, err
	}
	defer env.close()
	t.check(nil)

	stages := make(map[string][]float64)
	var candidates, recounted, prefixScans int
	var last *checkpoint
	for env.next < len(env.txns) {
		if last, err = env.advance(rec, env.next+w.deltaTxns(b)); err != nil {
			return nil, err
		}
		t.check(nil)
		stages["stream.append_s"] = append(stages["stream.append_s"], last.AppendS)
		stages["stream.read_s"] = append(stages["stream.read_s"], last.ReadS)
		stages["stream.incremental_s"] = append(stages["stream.incremental_s"], last.MineS)
		stages["stream.checkpoint_s"] = append(stages["stream.checkpoint_s"], last.TotalS)
		for name, secs := range last.Servable.stage {
			stages[name] = append(stages[name], secs)
		}
		candidates += last.Stats.Candidates
		recounted += last.Stats.Recounted
		prefixScans += last.Stats.PrefixScans
	}
	for name, samples := range stages {
		ms.setSamples(name, samples)
	}
	if candidates > 0 {
		ms.set("stream.recount_ratio", float64(recounted)/float64(candidates))
	}
	ms.set("stream.prefix_scans", float64(prefixScans))
	ms.set("rules.rules_out", float64(len(last.Servable.Rules)))
	ms.set("model.itemsets", float64(countItemsets(env.last.Large)))

	if err := emitSnapshot(rec, ms, env.modelPath, last.Servable.Model); err != nil {
		return nil, err
	}

	if err := microphases(rec, ms, env.ds.Taxonomy, env.ds.DB, nil, env.last.Large, b); err != nil {
		return nil, err
	}

	mix := newBasketMix(env.txns, seed)
	end = rec.begin("serve.load_test")
	sv := serveLoad(rec, env.fe, mix, b, time.Now(), w.ReloadEvery)
	end()
	t.add(sv.Requests+sv.Reloads, sv.Failures)
	t.add(checkReplies(env.fe, mix))
	if err := sv.emitLayer(rec, ms, env.fe, env.modelPath); err != nil {
		return nil, err
	}

	// The batch re-mine of the final log: the baseline the incremental path
	// must beat, and the sequential reference the last checkpoint must equal.
	var full *cumulate.Result
	secs, err := rec.timed("stream.full_mine", func() (err error) {
		full, err = cumulate.Mine(env.ds.Taxonomy, env.reader.Prefix(env.off), cumulate.Config{MinSupport: w.MinSup})
		return err
	})
	if err == nil && digest(full.Large) != digest(env.last.Large) {
		err = fmt.Errorf("%s: last checkpoint differs from cumulate.Mine over the whole log", w.Name)
	}
	t.check(err)
	ms.set("stream.full_mine_s", secs)
	env.checkLog(t)

	return finishTraced(t, rec, ms, tracePath)
}
