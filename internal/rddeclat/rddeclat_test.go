package rddeclat

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/datagen"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/eclat"
	"yafim/internal/itemset"
	"yafim/internal/obs"
	"yafim/internal/rdd"
	"yafim/internal/yafim"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

// classDepths are the two class granularities every parity test covers:
// Dist-Eclat's k=1 prefix subtrees and RDD-Eclat's default k=2 classes.
var classDepths = []int{1, 2}

func stage(t *testing.T, db *itemset.DB, opts ...rdd.Option) (*rdd.Context, *dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(4, dfs.WithBlockSize(32), dfs.WithReplication(2))
	path := "/data/" + db.Name + ".dat"
	if _, err := dataset.Stage(fs, path, db); err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.NewContext(cluster.Local(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	fs.SetRecorder(ctx.Recorder())
	return ctx, fs, path
}

func TestMineMatchesSequentialOracles(t *testing.T) {
	want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	seq, err := eclat.Mine(classicDB(), 2.0/9.0)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range classDepths {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			ctx, fs, path := stage(t, classicDB())
			got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0, ClassDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Result.Equal(want) {
				t.Fatalf("RDD-Eclat disagrees with Apriori oracle:\n got %v\nwant %v",
					got.Result.All(), want.All())
			}
			if !got.Result.Equal(seq) {
				t.Fatalf("RDD-Eclat disagrees with sequential Eclat:\n got %v\nwant %v",
					got.Result.All(), seq.All())
			}
			// Depth 2: L1 + pairs + deep. Depth 1: L1 + deep, whose
			// candidates are the classes, one per frequent item.
			if len(got.Passes) != depth+1 {
				t.Fatalf("trace passes = %d, want %d", len(got.Passes), depth+1)
			}
			for i, p := range got.Passes {
				if p.Duration <= 0 {
					t.Errorf("pass %d duration %v", i, p.Duration)
				}
			}
			if depth == 1 && got.Passes[1].Candidates != len(got.Result.Levels[0].Sets) {
				t.Errorf("deep pass stat = %+v, want one candidate per frequent item", got.Passes[1])
			}
			if depth == 2 && (got.Passes[1].K != 2 || got.Passes[1].Candidates == 0) {
				t.Errorf("pass 2 stat = %+v", got.Passes[1])
			}
		})
	}
}

func TestMineInvalidInputs(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	if _, err := Mine(ctx, fs, path, Config{MinSupport: 0}); err == nil {
		t.Error("zero support accepted")
	}
	if _, err := Mine(ctx, fs, "/missing", Config{MinSupport: 0.5}); err == nil {
		t.Error("missing input accepted")
	}
	bad := dfs.New(2)
	if err := bad.WriteFile("/bad.dat", []byte("1 zap\n"), nil); err != nil {
		t.Fatal(err)
	}
	badCtx, err := rdd.NewContext(cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Mine(badCtx, bad, "/bad.dat", Config{MinSupport: 0.5}); err == nil {
		t.Error("malformed transaction accepted")
	}
	for _, depth := range []int{-1, 3} {
		if _, err := Mine(ctx, fs, path, Config{MinSupport: 0.5, ClassDepth: depth}); err == nil {
			t.Errorf("class depth %d accepted", depth)
		}
	}
}

func TestMineNothingFrequent(t *testing.T) {
	db := itemset.NewDB("sparse", [][]itemset.Item{{1}, {2}, {3}, {4}})
	ctx, fs, path := stage(t, db)
	got, err := Mine(ctx, fs, path, Config{MinSupport: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if got.Result.NumFrequent() != 0 {
		t.Fatalf("frequent = %d", got.Result.NumFrequent())
	}
}

// MaxK must truncate the level sequence without disturbing the surviving
// levels — each bounded run is a prefix of the unbounded one.
func TestMineMaxK(t *testing.T) {
	for _, depth := range classDepths {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			ctx, fs, path := stage(t, classicDB())
			full, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0, ClassDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			if full.Result.MaxK() < 3 {
				t.Fatalf("classic db only reaches k=%d, fixture too shallow", full.Result.MaxK())
			}
			for maxK := 1; maxK <= full.Result.MaxK(); maxK++ {
				ctx, fs, path := stage(t, classicDB())
				got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0, MaxK: maxK, ClassDepth: depth})
				if err != nil {
					t.Fatal(err)
				}
				if got.Result.MaxK() != maxK {
					t.Fatalf("MaxK=%d mined to k=%d", maxK, got.Result.MaxK())
				}
				want := &apriori.Result{
					MinSupport: full.Result.MinSupport,
					Levels:     full.Result.Levels[:maxK],
				}
				if !got.Result.Equal(want) {
					t.Fatalf("MaxK=%d is not a prefix of the unbounded run", maxK)
				}
			}
		})
	}
}

// TestSeedSweepParity is the engine-matrix lock: across ≥5 generator seeds of
// the paper's T10I4D100K distribution, RDD-Eclat at both class depths,
// sequential Eclat and YAFIM produce byte-identical frequent itemsets.
func TestSeedSweepParity(t *testing.T) {
	const support = 0.005
	for _, seed := range []int64{1, 2, 3, 4, 5, 2014} {
		db, err := datagen.T10I4D100K(0.01, seed)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := eclat.Mine(db, support)
		if err != nil {
			t.Fatal(err)
		}
		var got *apriori.Trace
		for _, depth := range classDepths {
			ctx, fs, path := stage(t, db)
			got, err = Mine(ctx, fs, path, Config{MinSupport: support, ClassDepth: depth})
			if err != nil {
				t.Fatalf("seed %d depth %d: %v", seed, depth, err)
			}
			if !got.Result.Equal(seq) {
				t.Fatalf("seed %d depth %d: RDD-Eclat diverges from sequential Eclat", seed, depth)
			}
		}
		yCtx, yFs, yPath := stage(t, db)
		yTrace, err := yafim.Mine(yCtx, yFs, yPath, yafim.Config{MinSupport: support})
		if err != nil {
			t.Fatalf("seed %d: yafim: %v", seed, err)
		}
		if !got.Result.Equal(yTrace.Result) {
			t.Fatalf("seed %d: RDD-Eclat diverges from YAFIM", seed)
		}
	}
}

// TestChaosNodeKillMidIntersection kills a worker while the vertical
// intersection phase is in flight: the dead node's cached transaction
// partitions are recomputed from lineage, its intersection tasks are
// reassigned, and the mined itemsets stay byte-identical to the fault-free
// run — only the virtual timeline stretches. A second crashed run with the
// same seed must reproduce the first exactly, counters included.
func TestChaosNodeKillMidIntersection(t *testing.T) {
	db, err := datagen.T10I4D100K(0.01, 2014)
	if err != nil {
		t.Fatal(err)
	}
	for _, depth := range classDepths {
		t.Run(fmt.Sprintf("depth%d", depth), func(t *testing.T) {
			cfg := Config{MinSupport: 0.005, ClassDepth: depth}
			refCtx, refFs, refPath := stage(t, db)
			want, err := Mine(refCtx, refFs, refPath, cfg)
			if err != nil {
				t.Fatal(err)
			}
			reports := refCtx.Reports()
			if len(reports) < 4 {
				t.Fatalf("run scheduled %d jobs, want >= 4", len(reports))
			}
			// Crash once the counting jobs are done: the clock passes this
			// mark at the boundary entering the vertical-build shuffle, so
			// the intersection phase starts with a dead node, evicted cache
			// partitions, and lineage recomputes in its critical path.
			crashAt := reports[0].Duration() + reports[1].Duration()

			crashed := func() (*apriori.Trace, *rdd.Context, obs.Counters) {
				rec := obs.New()
				ctx, fs, path := stage(t, db,
					rdd.WithChaos(&chaos.Plan{Seed: 7, Crash: &chaos.NodeCrash{Node: 1, At: crashAt}}),
					rdd.WithRecorder(rec))
				got, err := Mine(ctx, fs, path, cfg)
				if err != nil {
					t.Fatal(err)
				}
				return got, ctx, rec.Counters()
			}
			got, ctx, c := crashed()
			if !got.Result.Equal(want.Result) {
				t.Fatal("node kill changed the mined itemsets")
			}
			if c.CacheEvictions == 0 {
				t.Fatal("node crash evicted no cached partitions")
			}
			if c.LineageRecomputes == 0 {
				t.Fatal("lost cached partitions were not recomputed from lineage")
			}
			if ctx.TotalDuration() <= refCtx.TotalDuration() {
				t.Fatalf("crashed run not slower: %v vs fault-free %v",
					ctx.TotalDuration(), refCtx.TotalDuration())
			}

			again, againCtx, c2 := crashed()
			if c2 != c {
				t.Fatalf("same seed, different counters:\n first %+v\nsecond %+v", c, c2)
			}
			if !again.Result.Equal(got.Result) {
				t.Fatal("same seed, different itemsets")
			}
			if againCtx.TotalDuration() != ctx.TotalDuration() {
				t.Fatalf("same seed, different virtual time: %v vs %v",
					againCtx.TotalDuration(), ctx.TotalDuration())
			}
		})
	}
}

func TestMergeTids(t *testing.T) {
	a, b := itemset.Tidlist{1, 3, 5}, itemset.Tidlist{2, 3, 6}
	m := a.Merge(b)
	if len(m) != 5 || m[0] != 1 || m[4] != 6 {
		t.Fatalf("merge = %v", m)
	}
	if got := itemset.Tidlist(nil).Merge(itemset.Tidlist{7}); len(got) != 1 || got[0] != 7 {
		t.Fatalf("merge with empty = %v", got)
	}
}

// Property: RDD-Eclat equals the sequential Eclat oracle on random databases,
// partitionings and class depths.
func TestMineMatchesOracleProperty(t *testing.T) {
	f := func(seed int64, sup8, parts8, depth8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		sup := 0.15 + float64(sup8%7)/10.0
		rows := make([][]itemset.Item, rng.Intn(20)+5)
		for i := range rows {
			n := rng.Intn(5) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(8)))
			}
		}
		db := itemset.NewDB("rand", rows)
		fs := dfs.New(3, dfs.WithBlockSize(16))
		if _, err := dataset.Stage(fs, "/r.dat", db); err != nil {
			return false
		}
		ctx, err := rdd.NewContext(cluster.Local())
		if err != nil {
			return false
		}
		got, err := Mine(ctx, fs, "/r.dat", Config{MinSupport: sup, NumPartitions: 1 + int(parts8%4),
			ClassDepth: classDepths[int(depth8)%len(classDepths)]})
		if err != nil {
			return false
		}
		want, err := eclat.Mine(db, sup)
		if err != nil {
			return false
		}
		return got.Result.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
