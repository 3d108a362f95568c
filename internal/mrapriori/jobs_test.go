package mrapriori

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/sim"
)

// runCountJob stages classicDB, writes blob as the candidate cache file and
// runs one count job over at least mapTasks splits, recording every mapper
// the job creates. It returns the mappers, the job's output and its error.
func runCountJob(t *testing.T, blob []byte, mapTasks int) ([]*countMapper, []mapreduce.KV, int, error) {
	t.Helper()
	runner, fs, path := stage(t, classicDB())
	const cachePath = "/work/C"
	if err := fs.WriteFile(cachePath, blob, nil); err != nil {
		t.Fatal(err)
	}
	splits, err := fs.SplitsN(path, mapTasks)
	if err != nil {
		t.Fatal(err)
	}
	newMapper := CountMappers(cachePath)
	var mu sync.Mutex
	var mappers []*countMapper
	_, _, jobErr := runner.Run(mapreduce.Job{
		Name:      "count",
		Input:     []string{path},
		OutputDir: "/work/out",
		NewMapper: func() mapreduce.Mapper {
			m := newMapper().(*countMapper)
			mu.Lock()
			mappers = append(mappers, m)
			mu.Unlock()
			return m
		},
		NewCombiner: func() mapreduce.Reducer { return sumReducer{} },
		NewReducer:  func() mapreduce.Reducer { return sumReducer{} },
		NumReducers: 3,
		MapTasks:    mapTasks,
		CacheFiles:  []string{cachePath},
	})
	if jobErr != nil {
		return mappers, nil, len(splits), jobErr
	}
	kvs, err := mapreduce.ReadOutput(fs, "/work/out", nil)
	if err != nil {
		t.Fatal(err)
	}
	return mappers, kvs, len(splits), nil
}

func TestCountJobBuildsTreesOnce(t *testing.T) {
	mappers, kvs, splits, err := runCountJob(t, []byte("1 2\n2 3\n1 3\n1 2 3\n"), 16)
	if err != nil {
		t.Fatal(err)
	}
	if splits < 8 || len(mappers) != splits {
		t.Fatalf("%d mappers for %d splits, want one per split and several splits", len(mappers), splits)
	}
	for i, m := range mappers {
		if m.trees != mappers[0].trees {
			t.Fatalf("map task %d counted against its own trees; want one shared build per job", i)
		}
	}
	got := map[string]string{}
	for _, kv := range kvs {
		got[kv.Key] = kv.Value
	}
	want := map[string]string{"1 2": "4", "2 3": "4", "1 3": "4", "1 2 3": "2"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("counts = %v, want %v", got, want)
	}
}

// setupAndCount runs one count mapper over rows and returns its emitted
// records as sorted "key=count" strings, plus the Setup ledger cost.
func setupAndCount(t *testing.T, m *countMapper, blob []byte, rows ...string) ([]string, float64) {
	t.Helper()
	led := &sim.Ledger{}
	if err := m.Setup(mapreduce.CacheFiles{m.cachePath: blob}, led); err != nil {
		t.Fatal(err)
	}
	setup := led.Total().CPUOps
	for _, r := range rows {
		if err := m.Map(0, r, nil, led); err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	if err := m.Cleanup(func(k, v string) { out = append(out, k+"="+v) }, led); err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out, setup
}

func TestCountMapperDifferingBlobBuildsOwnTrees(t *testing.T) {
	shared := &sharedTrees{}
	a := []byte("1 2\n2 3\n")
	first := &countMapper{cachePath: "/c", shared: shared}
	firstOut, firstCost := setupAndCount(t, first, a, "1 2 3", "2 3")
	if want := "[1 2=1 2 3=2]"; fmt.Sprint(firstOut) != want {
		t.Fatalf("memoized trees counted %v, want %v", firstOut, want)
	}

	other := &countMapper{cachePath: "/c", shared: shared}
	otherOut, _ := setupAndCount(t, other, []byte("1 3\n1 2 3\n"), "1 2 3", "1 3")
	if other.trees == first.trees {
		t.Fatal("a task with a different blob reused the memoized trees")
	}
	if want := "[1 2 3=1 1 3=2]"; fmt.Sprint(otherOut) != want {
		t.Fatalf("own trees counted %v, want %v", otherOut, want)
	}

	// A task with the memoized bytes in a separate buffer still shares, and
	// its ledger is charged the full build like the first task's was.
	again := &countMapper{cachePath: "/c", shared: shared}
	_, againCost := setupAndCount(t, again, append([]byte(nil), a...))
	if again.trees != first.trees {
		t.Fatal("a task with identical blob bytes built its own trees")
	}
	if want := float64(2 * 2); firstCost != want || againCost != want {
		t.Fatalf("setup charged %v and %v, want the tree build %v on every task",
			firstCost, againCost, want)
	}
}

func TestCountMapperMissingCacheFile(t *testing.T) {
	shared := &sharedTrees{}
	setupAndCount(t, &countMapper{cachePath: "/c", shared: shared}, []byte("1 2\n"))
	m := &countMapper{cachePath: "/c", shared: shared}
	err := m.Setup(mapreduce.CacheFiles{"/other": []byte("1 2\n")}, &sim.Ledger{})
	if err == nil || !strings.Contains(err.Error(), "not localised") {
		t.Fatalf("Setup without the cache file = %v, want a not-localised error", err)
	}
}

func TestCorruptCandidateBlobFailsEveryTask(t *testing.T) {
	for _, blob := range []string{"1 2\n2 oops\n", "\n\n"} {
		mappers, _, splits, err := runCountJob(t, []byte(blob), 8)
		if err == nil {
			t.Fatalf("blob %q: job succeeded", blob)
		}
		if len(mappers) < splits {
			t.Fatalf("blob %q: only %d of %d tasks attempted", blob, len(mappers), splits)
		}
		for task := 0; task < splits; task++ {
			if !strings.Contains(err.Error(), fmt.Sprintf("task %d setup:", task)) {
				t.Errorf("blob %q: task %d did not fail setup: %v", blob, task, err)
			}
		}
		for _, m := range mappers {
			if m.trees != nil {
				t.Fatalf("blob %q: a task counted against trees from a corrupt blob", blob)
			}
		}
		if mappers[0].shared.trees != nil {
			t.Fatalf("blob %q: a failed build was memoized", blob)
		}
	}
}

// TestMineEmptyTransaction: a blank input line is an empty transaction. It
// counts toward the support threshold and matches no candidate; it must not
// fail the counting passes.
func TestMineEmptyTransaction(t *testing.T) {
	db := itemset.NewDB("blank", [][]itemset.Item{{1, 2}, {}, {1, 2, 3}, {2, 3}, {}})
	runner, fs, path := stage(t, db)
	got, err := Mine(runner, fs, path, "/work", Config{MinSupport: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	want, err := apriori.Mine(db, 0.4, apriori.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Result.Equal(want) || want.MaxK() < 2 {
		t.Fatalf("got %v, want %v (with a level past 1)", got.Result.All(), want.All())
	}
}
