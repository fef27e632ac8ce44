package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"pgarm/internal/cumulate"
	"pgarm/internal/driver"
	"pgarm/internal/fpg"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/model"
	"pgarm/internal/obs"
	"pgarm/internal/txn"
)

// Shares of an untraced run's --seconds: mining workloads spend most of it
// on pipeline reps, stream-serve splits it between checkpoints and serving.
const (
	miningShare = 0.6
	streamShare = 0.5
)

// runResult is the outcome of one run of one workload.
type runResult struct {
	Attempted int
	Failed    int
	Errors    []string
	Metrics   map[string]metric
	Spans     []spanRollup // traced runs only
}

// tally counts operations: one mine rep, one checkpoint, one HTTP request,
// one correctness check.
type tally struct {
	attempted, failed int
	errs              []string
}

func (t *tally) add(n int, failures []error) {
	t.attempted += n
	t.failed += len(failures)
	for _, err := range failures {
		if len(t.errs) < 20 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

func (t *tally) check(err error) {
	if err != nil {
		t.add(1, []error{err})
		return
	}
	t.add(1, nil)
}

func (t *tally) result(ms *metricSet, rec *recorder) *runResult {
	return &runResult{
		Attempted: t.attempted, Failed: t.failed, Errors: t.errs,
		Metrics: ms.complete(), Spans: rec.rollups(),
	}
}

// rep is one measured pass through the pipeline: partitions on disk to a
// servable index.
type rep struct {
	MineS, PipelineS, AllocMB float64
	Out                       *mineOut
	Servable                  *servable
	Digest                    uint64
}

func (w *workload) layer() string {
	if w.Engine == fpg.Engine {
		return "fpg"
	}
	return "core"
}

func (w *workload) meta(name string, numTxns int) model.Meta {
	return model.Meta{
		Dataset: name, Algorithm: w.Engine, NumTxns: int64(numTxns),
		MinSupport: w.MinSup, MinConfidence: w.MinConf,
	}
}

func (w *workload) pipelineRep(rec *recorder, env *miningEnv, tracer *obs.Tracer, registry *obs.Registry) (*rep, error) {
	r := &rep{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	end := rec.begin("pipeline")
	defer end()
	t0 := time.Now()
	var err error
	r.MineS, err = rec.timed(w.layer()+".mine", func() (err error) {
		r.Out, err = w.mine(env.ds.Taxonomy, env.parts, tracer, registry)
		return err
	})
	if err != nil {
		return nil, err
	}
	r.Servable, err = buildServable(rec, env.ds.Taxonomy, r.Out.Res, r.Out.Large,
		w.meta(env.ds.Params.Name, env.ds.DB.Len()), nil, env.modelPath(), nil)
	if err != nil {
		return nil, err
	}
	r.PipelineS = time.Since(t0).Seconds()
	runtime.ReadMemStats(&after)
	r.AllocMB = float64(after.TotalAlloc-before.TotalAlloc) / 1e6
	r.Digest = digest(r.Out.Large)
	return r, nil
}

// crossCheck verifies the result against something that shares as little as
// possible with the engine that produced it: the other miner family where
// re-mining is affordable, the brute-force oracle where it is not.
func (w *workload) crossCheck(env *miningEnv, large [][]itemset.Counted, b budget, seed int64, t *tally) {
	tax := env.ds.Taxonomy
	if w.Engine == fpg.Engine {
		// Unbounded K at 1%: too slow to re-mine with Cumulate.
		t.add(oracle(tax, env.ds.DB, large, cumulate.MinCount(w.MinSup, env.ds.DB.Len()), b.Samples, rand.New(rand.NewSource(seed))))
		return
	}
	ref, err := fpg.Mine(tax, env.parts, fpg.Config{MinSupport: w.MinSup, MaxK: w.MaxK, Workers: workers})
	if err == nil && digest(ref.Large) != digest(large) {
		err = fmt.Errorf("%s: result differs from fpg.Mine", w.Name)
	}
	t.check(err)
}

// runMining is an untraced run of a mining workload: every end-to-end
// metric, nothing else.
func (w *workload) runMining(workDir string, b budget, seed int64) (*runResult, error) {
	t := &tally{}
	e2e := newMetricSet(endToEndDefs)

	env, err := timeSetups(b, e2e, func() (*miningEnv, error) {
		return w.setupMining(workDir, b, seed, nil, nil)
	})
	if err != nil {
		return nil, err
	}
	defer env.close()

	// One unmeasured rep lets the page cache and the allocator settle; its
	// result is the reference every measured rep must reproduce.
	last, err := w.pipelineRep(nil, env, nil, nil)
	if err != nil {
		return nil, err
	}
	t.check(nil)
	want := last.Digest

	var mineS, pipelineS, allocMB, ref []float64
	deadline := b.deadline(miningShare)
	for len(mineS) < b.MinReps || time.Now().Before(deadline) {
		// Every rep starts from a collected heap, so where the previous
		// rep's garbage happens to be collected is not part of the sample.
		runtime.GC()
		ref = append(ref, hostRef())
		if last, err = w.pipelineRep(nil, env, nil, nil); err != nil {
			return nil, err
		}
		mineS = append(mineS, last.MineS)
		pipelineS = append(pipelineS, last.PipelineS)
		allocMB = append(allocMB, last.AllocMB)
		t.check(sameDigest(w.Name, last.Digest, want))
	}
	e2e.setAtHostSpeed("mine_s", mineS, hostSpeed(ref))
	e2e.setAtHostSpeed("pipeline_s", pipelineS, hostSpeed(ref))
	e2e.setSamples("alloc_mb", allocMB)

	fe := newFrontend(last.Servable.Index, env.modelPath())
	defer fe.close()
	sv := serveMeasured(t, e2e, fe, newBasketMix(dbTxns(env.ds.DB), seed), b, 1-miningShare, 0)

	w.crossCheck(env, last.Out.Large, b, seed, t)
	fmt.Fprintf(os.Stderr, "%s: %d pipeline reps over %d txns, %d itemsets, %d rules, %d serving rounds\n",
		w.Name, len(mineS), env.ds.DB.Len(), countItemsets(last.Out.Large), len(last.Servable.Rules), len(sv.QPS))
	return t.result(e2e, nil), nil
}

// runMiningTraced is the traced run of a mining workload: every per-layer
// metric, the benchmark's own spans around each call into a layer, and the
// program's tracing switched on for the reps that measure its overhead.
func (w *workload) runMiningTraced(workDir string, b budget, seed int64, tracePath string) (*runResult, error) {
	t := &tally{}
	rec := newRecorder(fmt.Sprintf("%s-%d", w.Name, seed))
	ms := newMetricSet(perLayerDefs)

	end := rec.begin("setup")
	env, err := w.setupMining(workDir, b, seed, rec, ms)
	end()
	if err != nil {
		return nil, err
	}
	defer env.close()

	warm, err := w.pipelineRep(nil, env, nil, nil)
	if err != nil {
		return nil, err
	}
	t.check(nil)

	// Pairs of reps, tracing off then on. The off rep carries the benchmark's
	// spans and supplies the layer times and counts, so they are free of the
	// program's own tracing; the on rep exists to price that tracing.
	var off, on []float64
	var last *rep
	var tracer *obs.Tracer
	for i := 0; i < b.TracedReps; i++ {
		if last, err = w.pipelineRep(rec, env, nil, nil); err != nil {
			return nil, err
		}
		off = append(off, last.MineS)
		tracer = obs.NewTracer()
		traced, err := w.pipelineRep(nil, env, tracer, obs.NewRegistry())
		if err != nil {
			return nil, err
		}
		on = append(on, traced.MineS)
		t.check(sameDigest(w.Name, last.Digest, warm.Digest))
		t.check(sameDigest(w.Name+" with tracing on", traced.Digest, warm.Digest))
	}
	ms.set("obs.trace_overhead", median(on)/median(off))
	ms.set("obs.spans", float64(tracer.Spans()))
	ms.set("obs.dropped", float64(tracer.Dropped()))

	for name, secs := range last.Servable.stage {
		if name != "serve.load_s" {
			ms.set(name, secs)
		}
	}
	ms.set("rules.rules_out", float64(len(last.Servable.Rules)))
	ms.set("model.itemsets", float64(countItemsets(last.Out.Large)))
	w.emitRunStats(ms, last.Out.Stats, last.MineS, tracer)
	reportTiling(w.Name, last)

	if err := emitSnapshot(rec, ms, env.modelPath(), last.Servable.Model); err != nil {
		return nil, err
	}

	if err := microphases(rec, ms, env.ds.Taxonomy, env.ds.DB, env.parts, last.Out.Large, b); err != nil {
		return nil, err
	}

	fe := newFrontend(last.Servable.Index, env.modelPath())
	defer fe.close()
	mix := newBasketMix(dbTxns(env.ds.DB), seed)
	end = rec.begin("serve.load_test")
	sv := serveLoad(rec, fe, mix, b, time.Now(), 0)
	end()
	t.add(sv.Requests, sv.Failures)
	t.add(checkReplies(fe, mix))
	if err := sv.emitLayer(rec, ms, fe, env.modelPath()); err != nil {
		return nil, err
	}
	secs, err := rec.timed("serve.reload", func() error { return fe.srv.ReloadFile("") })
	if err != nil {
		return nil, err
	}
	ms.set("serve.reload_s", secs)

	w.crossCheck(env, last.Out.Large, b, seed, t)
	if w.Engine != fpg.Engine {
		cumulateS := w.sequentialBaseline(rec, env, last.Out.Large, t)
		ms.set("cumulate.mine_s", cumulateS)
		ms.set("core.speedup_vs_seq", cumulateS/median(off))
	}

	return finishTraced(t, rec, ms, tracePath)
}

// sequentialBaseline mines the whole database with plain sequential Cumulate,
// checks the result against it and returns its wall-clock.
func (w *workload) sequentialBaseline(rec *recorder, env *miningEnv, large [][]itemset.Counted, t *tally) float64 {
	var ref *cumulate.Result
	secs, err := rec.timed("cumulate.mine", func() (err error) {
		ref, err = cumulate.Mine(env.ds.Taxonomy, env.ds.DB, cumulate.Config{MinSupport: w.MinSup, MaxK: w.MaxK})
		return err
	})
	if err == nil && digest(ref.Large) != digest(large) {
		err = fmt.Errorf("%s: result differs from sequential cumulate.Mine", w.Name)
	}
	t.check(err)
	return secs
}

// emitRunStats turns the counters a mining run already returns into the
// core/fpg, driver, cluster, txn and metrics layer metrics.
func (w *workload) emitRunStats(ms *metricSet, rs *metrics.RunStats, mineS float64, tracer *obs.Tracer) {
	var (
		generate, scan, barrier                    time.Duration
		probes, increments, itemsSent              int64
		bytesSent, dataBytes, msgs, condBase       int64
		blocksScanned, blocksSkipped, bytesDecoded int64
		candidates, duplicated                     int
		nodeProbes                                 = make([]float64, rs.Nodes)
		costModel                                  = metrics.DefaultCostModel()
	)
	for _, ps := range rs.Passes {
		generate += ps.Generate
		if ps.Pass >= 2 {
			candidates += ps.Candidates
			duplicated += ps.Duplicated
		}
		var maxScan, maxBarrier time.Duration
		for _, ns := range ps.Nodes {
			maxScan = max(maxScan, ns.ScanTime)
			maxBarrier = max(maxBarrier, ns.BarrierWait)
			probes += ns.Probes
			increments += ns.Increments
			itemsSent += ns.ItemsSent
			bytesSent += ns.BytesSent
			dataBytes += ns.DataBytesSent
			msgs += ns.MsgsSent
			blocksScanned += ns.BlocksScanned
			blocksSkipped += ns.BlocksSkipped
			bytesDecoded += ns.BytesDecoded
			if ns.Node < len(nodeProbes) {
				nodeProbes[ns.Node] += float64(ns.Probes)
			}
			if int(driver.KCondBase) < len(ns.ByKind) {
				condBase += ns.ByKind[driver.KCondBase].BytesSent
			}
		}
		scan += maxScan
		barrier += maxBarrier
		if ps.Pass <= 3 {
			ms.set(fmt.Sprintf("%s.pass%d_s", w.layer(), ps.Pass), ps.Elapsed.Seconds())
		}
		if (ps.Pass == 2 || ps.Pass == 3) && w.layer() == "core" && ps.Elapsed > 0 {
			ms.set(fmt.Sprintf("metrics.costmodel_ratio_p%d", ps.Pass), costModel.PassTime(ps).Seconds()/ps.Elapsed.Seconds())
		}
	}
	ms.set("driver.barrier_wait_s", barrier.Seconds())
	ms.set("driver.barrier_share", barrier.Seconds()/mineS)
	ms.set("cluster.bytes_sent", float64(bytesSent))
	ms.set("cluster.data_bytes_sent", float64(dataBytes))
	ms.set("cluster.msgs_sent", float64(msgs))
	ms.set("txn.blocks_scanned", float64(blocksScanned))
	ms.set("txn.blocks_skipped", float64(blocksSkipped))
	ms.set("txn.bytes_decoded", float64(bytesDecoded))
	if w.layer() == "fpg" {
		if p2 := rs.Pass(2); p2 != nil {
			ms.set("fpg.tasks", float64(p2.Candidates))
		}
		ms.set("fpg.condbase_bytes", float64(condBase))
		// The program's own span rollups, from the rep that ran with its
		// tracer on; the slower node's span is the one the pass waited for.
		for _, ru := range tracer.Rollups() {
			switch ru.Name {
			case "build-forest":
				ms.set("fpg.build_forest_s", ru.MaxMS/1e3)
			case "ship-bases":
				ms.set("fpg.ship_bases_s", ru.MaxMS/1e3)
			case "mine":
				ms.set("fpg.grow_s", ru.MaxMS/1e3)
			}
		}
		return
	}
	ms.set("core.generate_s", generate.Seconds())
	ms.set("core.scan_s", scan.Seconds())
	ms.set("core.probes", float64(probes))
	ms.set("core.increments", float64(increments))
	ms.set("core.items_sent", float64(itemsSent))
	ms.set("core.candidates", float64(candidates))
	ms.set("core.duplicated", float64(duplicated))
	ms.set("core.probe_skew", metrics.Summarize(nodeProbes).MaxOverMean)
}

// reportTiling prints how well the per-pass times the program reports tile
// the mine wall-clock the benchmark measured, and how well the benchmark's
// stage spans tile the pipeline: the two sanity checks on the decomposition.
func reportTiling(name string, r *rep) {
	var passes time.Duration
	for _, ps := range r.Out.Stats.Passes {
		passes += ps.Elapsed
	}
	stages := r.MineS
	for _, s := range r.Servable.stage {
		stages += s
	}
	fmt.Fprintf(os.Stderr, "%s: passes sum to %.1f%% of mine_s, stage spans sum to %.1f%% of pipeline_s\n",
		name, 100*passes.Seconds()/r.MineS, 100*stages/r.PipelineS)
}

func dbTxns(db *txn.DB) []txn.Transaction {
	out := make([]txn.Transaction, db.Len())
	for i := range out {
		out[i] = db.At(i)
	}
	return out
}

// emitSnapshot records the size of the snapshot on disk and times encoding
// the model alone (model.write_s also pays the file and its fsync).
func emitSnapshot(rec *recorder, ms *metricSet, path string, m *model.Model) error {
	snapshot, err := os.Stat(path)
	if err != nil {
		return err
	}
	ms.set("model.snapshot_bytes", float64(snapshot.Size()))
	secs, err := rec.timed("model.encode", func() error {
		_, err := model.Encode(m)
		return err
	})
	ms.set("model.encode_s", secs)
	return err
}

// finishTraced closes a traced run: the bytes each layer allocated inside its
// timed calls, and the spans written out.
func finishTraced(t *tally, rec *recorder, ms *metricSet, tracePath string) (*runResult, error) {
	for layer, mb := range rec.allocs {
		ms.set(layer+".alloc_mb", mb)
	}
	if err := rec.writeTrace(tracePath); err != nil {
		return nil, err
	}
	return t.result(ms, rec), nil
}

func sameDigest(what string, got, want uint64) error {
	if got != want {
		return fmt.Errorf("%s: result digest %x differs from the first rep's %x", what, got, want)
	}
	return nil
}
