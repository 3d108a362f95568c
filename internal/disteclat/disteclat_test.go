package disteclat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
)

func classicDB() *itemset.DB {
	return itemset.NewDB("classic", [][]itemset.Item{
		{1, 2, 5}, {2, 4}, {2, 3}, {1, 2, 4}, {1, 3},
		{2, 3}, {1, 3}, {1, 2, 3, 5}, {1, 2, 3},
	})
}

func stage(t *testing.T, db *itemset.DB) (*rdd.Context, *dfs.FileSystem, string) {
	t.Helper()
	fs := dfs.New(4, dfs.WithBlockSize(32), dfs.WithReplication(2))
	path := "/data/" + db.Name + ".dat"
	if _, err := dataset.Stage(fs, path, db); err != nil {
		t.Fatal(err)
	}
	ctx, err := rdd.NewContext(cluster.Local())
	if err != nil {
		t.Fatal(err)
	}
	return ctx, fs, path
}

func TestMineMatchesSequentialOracle(t *testing.T) {
	ctx, fs, path := stage(t, classicDB())
	got, err := Mine(ctx, fs, path, Config{MinSupport: 2.0 / 9.0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := apriori.Mine(classicDB(), 2.0/9.0, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want) {
		t.Fatalf("Dist-Eclat disagrees with oracle:\n got %v\nwant %v",
			got.Result.All(), want.All())
	}
	if len(got.Passes) != 2 {
		t.Fatalf("trace passes = %d, want 2 (build + mine)", len(got.Passes))
	}
	for i, p := range got.Passes {
		if p.Duration <= 0 {
			t.Errorf("pass %d duration %v", i, p.Duration)
		}
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

func TestMergeAndIntersect(t *testing.T) {
	a, b := itemset.Tidlist{1, 3, 5}, itemset.Tidlist{2, 3, 6}
	m := a.Merge(b)
	if len(m) != 5 || m[0] != 1 || m[4] != 6 {
		t.Fatalf("merge = %v", m)
	}
	i := a.Intersect(b)
	if len(i) != 1 || i[0] != 3 {
		t.Fatalf("intersect = %v", i)
	}
}

// Property: Dist-Eclat equals the sequential oracle on random databases.
func TestMineMatchesOracleProperty(t *testing.T) {
	f := func(seed int64, sup8 uint8) bool {
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
		got, err := Mine(ctx, fs, "/r.dat", Config{MinSupport: sup})
		if err != nil {
			return false
		}
		want, err := apriori.Mine(db, sup, apriori.Options{})
		if err != nil {
			return false
		}
		return got.Result.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
