package main

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"pgarm/internal/core"
	"pgarm/internal/driver"
	"pgarm/internal/fpg"
	"pgarm/internal/gen"
	"pgarm/internal/itemset"
	"pgarm/internal/metrics"
	"pgarm/internal/obs"
	"pgarm/internal/taxonomy"
	"pgarm/internal/txn"
)

// The load shape is fixed by the host this benchmark was sized on: two
// hardware threads. Every cluster is 2 nodes x 1 worker, so mining keeps both
// busy. Serving is driven by 8 closed-loop clients, four per hardware thread:
// recommendation callers wait for their reply, and with fewer clients than
// that the server's threads go idle between requests, which on this
// virtualised host makes every latency a measure of the hypervisor's wake-up
// delay (it drifts by 30% over minutes) and not of the work per request.
const (
	nodes   = 2
	workers = 1
	clients = 8
	procs   = 2 // GOMAXPROCS
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	Name string

	// Mining workloads.
	Engine   string // a core.Algorithm name or fpg.Engine; "" on stream-serve
	Fabric   driver.FabricKind
	Columnar bool
	MaxK     int

	MinSup  float64
	MinConf float64
	Scale   float64 // of R30F5's 3.2M transactions

	// stream-serve only: the log is seeded with Scale's transactions, then
	// fed deltas of DeltaTxns; the traced run mines exactly Deltas of them.
	DeltaTxns int
	Deltas    int
	// ReloadEvery makes client 0 POST /reload once per this many requests.
	ReloadEvery int
}

// workloads are fixed by name; later issues refer to them. BENCHMARK.json
// records why each was chosen. Sizes are set by the acceptance protocol, which
// gives one run of one workload about twenty measured seconds: a pipeline rep
// has to stay near half a second for a run to hold enough of them that the
// median shrugs off this shared host's scheduling bursts.
var workloads = []workload{
	{
		// The paper's winning algorithm on the default storage and fabric.
		Name:   "batch-fgd",
		Engine: string(core.HHPGMFGD), Fabric: driver.FabricChan, Columnar: true, MaxK: 3,
		MinSup: 0.02, MinConf: 0.6, Scale: 0.007,
	},
	{
		// Same files, the other miner family: no candidates, 9x the result.
		// A change to core, itemset or cumulate must predict no move here.
		Name:   "batch-fpg",
		Engine: fpg.Engine, Fabric: driver.FabricChan, Columnar: true,
		MinSup: 0.01, MinConf: 0.6, Scale: 0.007,
	},
	{
		// The communication-bound baseline (Table 6), on the other storage
		// format and the other fabric: a gain on one path that costs the
		// other shows against batch-fgd.
		Name:   "mesh-hpgm",
		Engine: string(core.HPGM), Fabric: driver.FabricTCP, MaxK: 3,
		MinSup: 0.02, MinConf: 0.6, Scale: 0.0025,
	},
	{
		// The freshness and serving path; reloads race reads, so a serve-side
		// gain that makes hot swap or a cold cache worse shows in the tail.
		Name:   "stream-serve",
		MinSup: 0.02, MinConf: 0.5, Scale: 0.005,
		DeltaTxns: 2000, Deltas: 8, ReloadEvery: 1000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("bench: unknown workload %q", name)
}

// budget is how much work one run does. The full size is what the numbers
// in BENCHMARK.json and results/ were measured with; smoke is the size the
// test suite can afford.
type budget struct {
	Seconds     float64 // measured time of an untraced run
	SetupReps   int     // set-ups per run; setup_s is their median
	MinReps     int     // mining reps / checkpoints measured at least
	TracedReps  int     // untraced+traced rep pairs of a traced run
	RoundReqs   int     // HTTP requests per serving round
	MinRounds   int     // serving rounds measured at least
	FabricBytes int     // shipped by the fabric microphase
	Samples     int     // itemsets the oracle recounts
	ScaleFactor float64 // multiplies every workload's Scale and DeltaTxns
	MaxDeltas   int     // stream-serve: deltas generated for an untraced run
}

// deadline is the end of a phase that starts now and may use the given share
// of the run's measured seconds.
func (b budget) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(b.Seconds * share * float64(time.Second)))
}

// timeSetups sets the workload up b.SetupReps times, keeps the last
// environment and records the median as setup_s, at reference host speed.
func timeSetups[E interface{ close() }](b budget, e2e *metricSet, setup func() (E, error)) (env E, err error) {
	var secs, ref []float64
	for i := 0; i < b.SetupReps; i++ {
		if i > 0 {
			env.close()
		}
		ref = append(ref, hostRef())
		t0 := time.Now()
		if env, err = setup(); err != nil {
			return env, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	e2e.setAtHostSpeed("setup_s", secs, hostSpeed(ref))
	return env, nil
}

func fullBudget(seconds float64) budget {
	return budget{
		Seconds: seconds, SetupReps: 3, MinReps: 3, TracedReps: 2,
		RoundReqs: 2000, MinRounds: 5, FabricBytes: 64 << 20, Samples: 256,
		ScaleFactor: 1, MaxDeltas: 40,
	}
}

func smokeBudget() budget {
	return budget{
		Seconds: 0, SetupReps: 1, MinReps: 1, TracedReps: 1,
		RoundReqs: 200, MinRounds: 1, FabricBytes: 1 << 20, Samples: 32,
		ScaleFactor: 0.2, MaxDeltas: 3,
	}
}

// generate makes a workload's transactions from the seed. The catalog - the
// R30F5 hierarchy and its pool of potentially large itemsets - is the paper's
// and is the same for every seed, so every seed faces the same item
// popularity; the seed draws which half of a generated pool of transactions
// makes up the database, and in what order. (Seeding the generator itself
// also redraws the catalog, which moves the size of the FPG result by 10%
// from seed to seed: a different workload per seed, not a different sample of
// one.) The seed reaches the program under test only through these inputs.
func (w *workload) generate(b budget, seed int64, extraTxns int) (*gen.Dataset, error) {
	p := gen.R30F5().Scaled(w.Scale * b.ScaleFactor)
	n := p.NumTxns + extraTxns
	p.NumTxns = 2 * n
	pool, err := gen.Generate(p)
	if err != nil {
		return nil, err
	}
	db := &txn.DB{}
	for tid, i := range rand.New(rand.NewSource(seed)).Perm(2 * n)[:n] {
		db.Append(txn.Transaction{TID: int64(tid), Items: pool.DB.At(i).Items})
	}
	p.NumTxns = n
	return &gen.Dataset{Params: p, Taxonomy: pool.Taxonomy, DB: db}, nil
}

// miningEnv is a mining workload's input as the program sees it: partition
// files on disk, opened.
type miningEnv struct {
	dir   string
	ds    *gen.Dataset
	parts []txn.Scanner
}

func (e *miningEnv) modelPath() string { return filepath.Join(e.dir, "model.pgarm") }

func (e *miningEnv) close() {
	for _, p := range e.parts {
		if c, ok := p.(io.Closer); ok {
			c.Close()
		}
	}
	os.RemoveAll(e.dir)
}

// setupMining generates the dataset, partitions it round-robin over the
// nodes, writes one partition file per node and opens them.
func (w *workload) setupMining(workDir string, b budget, seed int64, rec *recorder, ms *metricSet) (*miningEnv, error) {
	dir, err := os.MkdirTemp(workDir, w.Name+"-")
	if err != nil {
		return nil, err
	}
	env := &miningEnv{dir: dir}
	secs, err := rec.timed("gen.generate", func() (err error) {
		env.ds, err = w.generate(b, seed, 0)
		return err
	})
	if err != nil {
		env.close()
		return nil, err
	}
	ms.set("gen.generate_s", secs)
	ms.set("gen.txns", float64(env.ds.DB.Len()))

	paths := make([]string, nodes)
	secs, err = rec.timed("txn.write", func() error {
		for i, part := range txn.Partition(env.ds.DB, nodes) {
			paths[i] = filepath.Join(dir, fmt.Sprintf("n%02d.ptx", i))
			var err error
			if w.Columnar {
				err = txn.WriteColumnar(paths[i], part, env.ds.Taxonomy, txn.DefaultTxnsPerBlock)
			} else {
				err = txn.WriteFile(paths[i], part)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		env.close()
		return nil, err
	}
	ms.set("txn.write_s", secs)

	for _, p := range paths {
		sc, err := txn.Open(p)
		if err != nil {
			env.close()
			return nil, err
		}
		env.parts = append(env.parts, sc)
	}
	return env, nil
}

// mineOut is one mining run: the levels, the run's own counters, and the
// result as rule derivation consumes it.
type mineOut struct {
	Large [][]itemset.Counted
	Stats *metrics.RunStats
	Res   mined
}

// mine runs the workload's engine over the opened partitions. tracer and
// registry are the program's own public tracing options, nil when off.
func (w *workload) mine(tax *taxonomy.Taxonomy, parts []txn.Scanner, tracer *obs.Tracer, registry *obs.Registry) (*mineOut, error) {
	if w.Engine == fpg.Engine {
		res, err := fpg.Mine(tax, parts, fpg.Config{
			MinSupport: w.MinSup, MaxK: w.MaxK, Workers: workers, Fabric: w.Fabric,
			Tracer: tracer, Registry: registry,
		})
		if err != nil {
			return nil, err
		}
		return &mineOut{Large: res.Large, Stats: res.Stats, Res: res}, nil
	}
	res, err := core.Mine(tax, parts, core.Config{
		Algorithm: core.Algorithm(w.Engine), MinSupport: w.MinSup, MaxK: w.MaxK,
		Workers: workers, Fabric: w.Fabric, Tracer: tracer, Registry: registry,
	})
	if err != nil {
		return nil, err
	}
	return &mineOut{Large: res.Large, Stats: res.Stats, Res: res}, nil
}
