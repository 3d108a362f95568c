package main

import (
	"bytes"
	"context"
	"os"
	"testing"

	"yafim/internal/datagen"
	"yafim/internal/eclat"
	"yafim/internal/itemset"
)

// smallRunner mines a small Chess slice with the MapReduce sim against the
// Eclat oracle; with tamper, one oracle support count is off by one.
func smallRunner(t *testing.T, tamper bool) *runner {
	t.Helper()
	w := workload{name: "tiny-mr", engine: engineMR, support: 0.85,
		gen: func(seed int64) (*itemset.DB, error) { return datagen.ChessLike(0.1, seed) }}
	db, err := w.gen(1)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := eclat.Mine(db, w.support)
	if err != nil {
		t.Fatal(err)
	}
	if tamper {
		oracle.Levels[1].Sets[0].Count++
	}
	var out bytes.Buffer
	return &runner{bench: bench{w: w, seed: 1, db: db, tr: newTracer("test")},
		seconds: 1, stdout: &out, stderr: &out, oracle: oracle}
}

func TestOracleMismatchFails(t *testing.T) {
	r := smallRunner(t, true)
	if _, ok := r.mineChecked(context.Background(), nil, nil); ok {
		t.Fatal("a result that differs from the oracle passed")
	}
	if res := r.result(nil); res.Correct || res.Failed != 1 || res.Attempted != 1 {
		t.Errorf("result = %+v, want one failed attempt", res)
	}
}

func TestVirtDriftFails(t *testing.T) {
	r := smallRunner(t, false)
	if _, ok := r.mineChecked(context.Background(), nil, nil); !ok {
		t.Fatal("a correct mine failed")
	}
	r.firstVirt++
	if _, ok := r.mineChecked(context.Background(), nil, nil); ok {
		t.Fatal("a mine whose virt_s drifted passed")
	}
	if res := r.result(nil); res.Correct || res.Failed != 1 || res.Attempted != 2 {
		t.Errorf("result = %+v, want 1 of 2 failed", res)
	}
}

// BENCHMARK.json must be what --manifest renders from this package.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: go run . --manifest > ../BENCHMARK.json\n%s", want)
	}
}

// The traced run reports every per-layer metric, and the layers that ran
// on the MapReduce sim did work.
func TestTracedReportsEveryLayer(t *testing.T) {
	r := smallRunner(t, false)
	r.seconds = 0.2
	res, err := r.traced(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != len(perLayer) {
		t.Fatalf("correct %v with %d metrics, want %d", res.Correct, len(res.Metrics), len(perLayer))
	}
	for _, name := range []string{"mapreduce.jobs", "mapreduce.map_tasks", "dfs.read_bytes",
		"hashtree.ops", "apriori.result_sets", "sim.virt_s", "obs.trace_overhead"} {
		if res.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want > 0", name, res.Metrics[name].Value)
		}
	}
	if v := res.Metrics["rdd.jobs"].Value; v != 0 {
		t.Errorf("rdd.jobs = %v on the MapReduce engine", v)
	}
}
