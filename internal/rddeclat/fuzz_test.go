package rddeclat

import (
	"math/rand"
	"testing"

	"yafim/internal/chaos"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/eclat"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
)

// FuzzRDDEclatParity locks RDD-Eclat to the sequential Eclat oracle on
// arbitrary databases, supports, partitionings, class depths and chaos
// plans: the distributed bitset walk must reproduce the tidlist walk's
// output exactly, faults included.
func FuzzRDDEclatParity(f *testing.F) {
	f.Add(int64(7), uint8(3), uint8(2), uint8(2), int64(0), false)
	f.Add(int64(2014), uint8(0), uint8(1), uint8(1), int64(3), true)
	f.Add(int64(-1), uint8(6), uint8(4), uint8(1), int64(9), false)
	f.Add(int64(2014), uint8(0), uint8(1), uint8(2), int64(3), true)
	f.Fuzz(func(t *testing.T, dbSeed int64, sup8, parts8, depth8 uint8, chaosSeed int64, crash bool) {
		rng := rand.New(rand.NewSource(dbSeed))
		sup := 0.1 + float64(sup8%8)/10.0
		depth := 1 + int(depth8%2)
		rows := make([][]itemset.Item, rng.Intn(30)+5)
		for i := range rows {
			n := rng.Intn(6) + 1
			for j := 0; j < n; j++ {
				rows[i] = append(rows[i], itemset.Item(rng.Intn(10)))
			}
		}
		db := itemset.NewDB("fuzz", rows)
		want, err := eclat.Mine(db, sup)
		if err != nil {
			t.Fatal(err)
		}

		run := func(opts ...rdd.Option) *rdd.Context {
			fs := dfs.New(4, dfs.WithBlockSize(16), dfs.WithReplication(2))
			if _, err := dataset.Stage(fs, "/f.dat", db); err != nil {
				t.Fatal(err)
			}
			ctx, err := rdd.NewContext(cluster.Local(), opts...)
			if err != nil {
				t.Fatal(err)
			}
			fs.SetRecorder(ctx.Recorder())
			got, err := Mine(ctx, fs, "/f.dat", Config{MinSupport: sup, NumPartitions: 1 + int(parts8%4),
				ClassDepth: depth})
			if err != nil {
				t.Fatal(err)
			}
			if !got.Result.Equal(want) {
				t.Fatalf("RDD-Eclat diverges from sequential Eclat (sup=%v, depth=%d)", sup, depth)
			}
			return ctx
		}

		ref := run()
		plan := &chaos.Plan{
			Seed:          chaosSeed,
			TaskFailProb:  chaos.Unit(chaosSeed, "fuzz-task") * 0.5,
			FetchFailProb: chaos.Unit(chaosSeed, "fuzz-fetch") * 0.5,
		}
		if crash && len(ref.Reports()) > 1 {
			plan.Crash = &chaos.NodeCrash{Node: 1, At: ref.Reports()[0].Duration()}
		}
		if err := plan.Validate(); err != nil {
			t.Fatalf("fuzz built an invalid plan: %v", err)
		}
		run(rdd.WithChaos(plan))
	})
}
