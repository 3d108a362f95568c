package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/datagen"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/experiments"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
	"yafim/internal/sim"
	"yafim/internal/yafim"
)

// Engines a workload mines with.
const (
	engineYAFIM = "yafim"     // experiments.RunYAFIM on the Spark preset
	engineEclat = "rddeclat"  // experiments.RunRDDEclat on the Spark preset
	engineMR    = "mrapriori" // experiments.RunMRApriori on the Hadoop preset
	engineDist  = "dist"      // mrapriori.MineDistributed on real worker processes
)

// distWorkers and distMapTasks shape the real-process workload.
const (
	distWorkers  = 2
	distMapTasks = 4
)

// workload is one benchmark input and the engine that mines it. One
// operation is one full mine.
type workload struct {
	name    string
	engine  string
	support float64
	why     string
	gen     func(seed int64) (*itemset.DB, error)
}

// t10 is the IBM Quest T10I4 shape at 50 000 transactions with the 2000
// potential patterns of the original generator; the repository's
// T10I4D100K preset draws only 200, which makes the mining cost swing
// about 1.5x from seed to seed.
func t10(seed int64) (*itemset.DB, error) {
	return datagen.Quest(datagen.QuestConfig{
		Name: "T10I4D50K", Items: 870, Transactions: 50000,
		AvgTransLen: 10, AvgPatternLen: 4, NumPatterns: 2000,
		Corruption: 0.25, Seed: seed,
	})
}

func chess(seed int64) (*itemset.DB, error) { return datagen.ChessLike(1, seed) }

var workloads = []workload{
	{name: "t10-yafim", engine: engineYAFIM, support: 0.0025, gen: t10,
		why: "sparse T10I4 Quest, 50000 tx, support 0.25%, YAFIM, 192 tasks: 300k+ pass-2 candidates counted by the hash tree over an RDD read from the DFS once and cached"},
	{name: "chess-eclat", engine: engineEclat, support: 0.75, gen: chess,
		why: "dense ChessLike, 3196 tx, support 75%, RDD-Eclat, 192 tasks: 342720 itemsets up to size 18, output-heavy; bitset AND+popcount and result assembly, no hash tree"},
	{name: "chess-mr", engine: engineMR, support: 0.85, gen: chess,
		why: "dense ChessLike, 3196 tx, paper support 85%, MRApriori on the Hadoop sim, 192 map tasks: every map task rebuilds the candidate hash tree, every pass re-reads the DFS"},
	{name: "chess-dist", engine: engineDist, support: 0.85, gen: chess,
		why: "the chess-mr mine on 2 real worker processes over 127.0.0.1, 4 map tasks per job: lease/complete RPCs, map-output fetch and the worker block cache"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// simConfig is the paper cluster preset the engine runs on.
func (w workload) simConfig() cluster.Config {
	if w.engine == engineEclat || w.engine == engineYAFIM {
		return cluster.PaperSpark()
	}
	return cluster.PaperHadoop()
}

// tasks is the task-count hint: twice the preset's cores, as yafim.Mine
// and the experiments use, or the fixed map-task count of the dist job.
func (w workload) tasks() int {
	if w.engine == engineDist {
		return distMapTasks
	}
	return 2 * w.simConfig().TotalCores()
}

// mineOut is what one mine leaves for the checks and the per-layer table.
type mineOut struct {
	wall        float64 // seconds in the mining call
	allocMB     float64 // heap allocated by this process in the mining call
	trace       *apriori.Trace
	virt        time.Duration   // cost-model makespan; 0 under dist
	reports     []sim.JobReport // sim job reports
	counters    obs.Counters    // recorder counters, when one was attached
	shufflePeak int64           // rdd engines
	cluster     *distCluster    // dist: the cluster the mine ran on, still up
}

// bench is one benchmark run's state.
type bench struct {
	w      workload
	seed   int64
	db     *itemset.DB
	input  string // dist: the transaction file the workers read
	tmpDir string
	self   string     // this binary
	worker workerArgv // dist: how to start a worker process
	tr     *tracer
}

// setUp generates the input and stages it, and starts the engine, under
// spans; it returns the elapsed seconds. The products are thrown away: a
// sim mine stages into a fresh DFS of its own (experiments.RunYAFIM and
// its siblings), and a dist mine needs a fresh cluster, so the started one
// is stopped again, outside the timed span.
func (b *bench) setUp(ctx context.Context) (float64, error) {
	root := b.tr.begin("setup", 0)
	sp := b.tr.begin("datagen.gen_s", root)
	db, err := b.w.gen(b.seed)
	b.tr.end(sp)
	if err != nil {
		return 0, fmt.Errorf("datagen: %w", err)
	}
	b.db = db
	cfg := b.w.simConfig()
	switch b.w.engine {
	case engineDist:
		sp = b.tr.begin("dataset.save_s", root)
		b.input = filepath.Join(b.tmpDir, "input.dat")
		err = dataset.SaveFile(db, b.input)
		b.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("save input: %w", err)
		}
		sp = b.tr.begin("dist.register_s", root)
		c, err := startCluster(ctx, b.worker, b.tmpDir, distWorkers)
		b.tr.end(sp)
		if err != nil {
			return 0, err
		}
		defer c.stop()
	default:
		sp = b.tr.begin("dfs.stage_s", root)
		fs := dfs.New(cfg.Nodes)
		_, err = dataset.Stage(fs, "/data/input.dat", db)
		b.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("stage: %w", err)
		}
		sp = b.tr.begin("engine.start_s", root)
		if b.w.engine == engineMR {
			_, err = mapreduce.NewRunner(fs, cfg)
		} else {
			var rc *rdd.Context
			if rc, err = rdd.NewContext(cfg); err == nil {
				err = rc.Close()
			}
		}
		b.tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("engine start: %w", err)
		}
	}
	return b.tr.end(root), nil
}

// mine runs one full mine. Its wall and allocMB cover the mining call
// only (a dist mine's cluster start is outside it). rec, when non-nil, is
// attached to the sim engine. The caller stops out.cluster.
func (b *bench) mine(ctx context.Context, rec *obs.Recorder) (out mineOut, err error) {
	measure := func(call func()) {
		a0, t0 := heapAllocBytes(), time.Now()
		call()
		out.wall, out.allocMB = time.Since(t0).Seconds(), float64(heapAllocBytes()-a0)/1e6
	}
	cfg := b.w.simConfig()
	var opts []rdd.Option
	if rec != nil {
		opts = append(opts, rdd.WithRecorder(rec))
	}
	switch b.w.engine {
	case engineYAFIM, engineEclat:
		var rc *rdd.Context
		measure(func() {
			if b.w.engine == engineYAFIM {
				out.trace, rc, err = experiments.RunYAFIM(ctx, b.db, b.w.support, cfg, b.w.tasks(), yafim.Config{}, opts...)
			} else {
				out.trace, rc, err = experiments.RunRDDEclat(ctx, b.db, b.w.support, cfg, b.w.tasks(), rddeclat.Config{}, opts...)
			}
		})
		if err == nil {
			out.reports, out.shufflePeak = rc.Reports(), rc.ShufflePeakBytes()
			err = rc.Close()
		}
	case engineMR:
		var r *mapreduce.Runner
		measure(func() {
			out.trace, r, err = experiments.RunMRApriori(ctx, b.db, b.w.support, cfg, b.w.tasks(), mrapriori.Config{}, rec, nil)
		})
		if err == nil {
			out.reports = r.Reports()
		}
	case engineDist:
		if out.cluster, err = startCluster(ctx, b.worker, b.tmpDir, distWorkers); err != nil {
			return out, err
		}
		wctx, cancel := out.cluster.watch(ctx)
		measure(func() {
			out.trace, err = mrapriori.MineDistributed(wctx, out.cluster.master, b.input, mrapriori.Config{
				MinSupport: b.w.support, NumMapTasks: distMapTasks,
			})
		})
		if cause := context.Cause(wctx); errors.Is(cause, errWorkerLost) {
			err = cause
		}
		cancel()
		if err == nil {
			err = out.cluster.healthy()
		}
	}
	if err != nil {
		return out, err
	}
	if b.w.engine != engineDist {
		out.virt = out.trace.TotalDuration()
	}
	if rec != nil {
		out.counters = rec.Counters()
	}
	return out, nil
}
