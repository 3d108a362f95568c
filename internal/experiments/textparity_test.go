package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"yafim/internal/apriori"
	"yafim/internal/cluster"
	"yafim/internal/dataset"
	"yafim/internal/dfs"
	"yafim/internal/dist"
	"yafim/internal/disteclat"
	"yafim/internal/mapreduce"
	"yafim/internal/mrapriori"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
	"yafim/internal/son"
	"yafim/internal/yafim"
)

// mineText runs every engine that reads transaction text over the same raw
// bytes, keyed by engine name. A nil result means the engine rejected the
// input.
func mineText(t *testing.T, text string, support float64) map[string]*apriori.Result {
	t.Helper()
	cfg := cluster.Local()
	const path = "/in.dat"
	newFS := func() *dfs.FileSystem {
		fs := dfs.New(cfg.Nodes)
		if err := fs.WriteFile(path, []byte(text), nil); err != nil {
			t.Fatal(err)
		}
		return fs
	}
	local := filepath.Join(t.TempDir(), "in.dat")
	if err := os.WriteFile(local, []byte(text), 0o644); err != nil {
		t.Fatal(err)
	}
	onRDD := func(mine func(*rdd.Context, *dfs.FileSystem) (*apriori.Trace, error)) (*apriori.Trace, error) {
		ctx, err := rdd.NewContext(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mine(ctx, newFS())
	}
	onMR := func(mine func(*mapreduce.Runner, *dfs.FileSystem) (*apriori.Trace, error)) (*apriori.Trace, error) {
		fs := newFS()
		runner, err := mapreduce.NewRunner(fs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return mine(runner, fs)
	}
	engines := map[string]func() (*apriori.Trace, error){
		"yafim": func() (*apriori.Trace, error) {
			return onRDD(func(ctx *rdd.Context, fs *dfs.FileSystem) (*apriori.Trace, error) {
				return yafim.Mine(ctx, fs, path, yafim.Config{MinSupport: support, NumPartitions: 2})
			})
		},
		"rddeclat": func() (*apriori.Trace, error) {
			return onRDD(func(ctx *rdd.Context, fs *dfs.FileSystem) (*apriori.Trace, error) {
				return rddeclat.Mine(ctx, fs, path, rddeclat.Config{MinSupport: support, NumPartitions: 2})
			})
		},
		"disteclat": func() (*apriori.Trace, error) {
			return onRDD(func(ctx *rdd.Context, fs *dfs.FileSystem) (*apriori.Trace, error) {
				return disteclat.Mine(ctx, fs, path, disteclat.Config{MinSupport: support, NumPartitions: 2})
			})
		},
		"mrapriori": func() (*apriori.Trace, error) {
			return onMR(func(r *mapreduce.Runner, fs *dfs.FileSystem) (*apriori.Trace, error) {
				return mrapriori.Mine(r, fs, path, "/work", mrapriori.Config{MinSupport: support, NumMapTasks: 2})
			})
		},
		"mrapriori-dist": func() (*apriori.Trace, error) {
			return mrapriori.MineDistributed(context.Background(), &dist.Local{}, local,
				mrapriori.Config{MinSupport: support, NumMapTasks: 2})
		},
		"son": func() (*apriori.Trace, error) {
			return onMR(func(r *mapreduce.Runner, fs *dfs.FileSystem) (*apriori.Trace, error) {
				return son.Mine(r, fs, path, "/work", son.Config{MinSupport: support, NumMapTasks: 2})
			})
		},
		"loadfile+apriori": func() (*apriori.Trace, error) {
			db, err := dataset.LoadFile("in", local)
			if err != nil {
				return nil, err
			}
			res, err := apriori.Mine(db, support, apriori.Options{})
			return &apriori.Trace{Result: res}, err
		},
	}
	out := map[string]*apriori.Result{}
	for name, mine := range engines {
		trace, err := mine()
		if err != nil {
			out[name] = nil
			continue
		}
		out[name] = trace.Result
	}
	return out
}

// TestRawTextParity feeds the same raw transaction text to every engine
// that parses it: each input must be mined to identical itemsets, counts and
// thresholds by all of them, or rejected by all of them.
func TestRawTextParity(t *testing.T) {
	cases := []struct {
		name    string
		text    string
		support float64
		reject  bool
	}{
		{"duplicate item", "1 1 2\n1 2\n3\n", 0.5, false},
		{"leading zeros", "7 2\n007 2\n3\n", 0.5, false},
		{"CRLF", "1 2\r\n1 2 3\r\n2 3\r\n", 0.5, false},
		{"int32 overflow", "2147483648 2\n2\n", 0.5, true},
		{"uint32 wrap", "4294967297 2\n1 2\n", 0.5, true},
		{"plus sign", "+7 2\n7 2\n", 0.5, true},
		{"negative", "-1 2\n2\n", 0.5, true},
		{"non-numeric", "1 2 oops\n1 2\n", 0.5, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := mineText(t, c.text, c.support)
			checkParity(t, got, c.reject)
		})
	}
}

// TestRawTextParityBlankLine pins the one place the text readers differ. To
// every engine that reads the text itself, a blank line is an empty
// transaction that counts toward the support threshold, as an empty row of
// an in-memory DB does. ReadDB skips blank lines, so LoadFile mines the
// text as if the blank line were absent.
func TestRawTextParityBlankLine(t *testing.T) {
	const text, support = "1 2\n\n1 2\n3\n", 0.6
	got := mineText(t, text, support)
	loaded := got["loadfile+apriori"]
	delete(got, "loadfile+apriori")
	checkParity(t, got, false)
	if r := got["yafim"]; r == nil || r.MinSupport != 3 {
		t.Errorf("blank line not counted: %s, want min count 3 of 4", describe(r))
	}

	stripped := mineText(t, strings.ReplaceAll(text, "\n\n", "\n"), support)
	checkParity(t, stripped, false)
	if !sameResult(loaded, stripped["yafim"]) {
		t.Errorf("LoadFile with a blank line = %s, want the blank-free result %s",
			describe(loaded), describe(stripped["yafim"]))
	}
}

func checkParity(t *testing.T, got map[string]*apriori.Result, reject bool) {
	t.Helper()
	ref := got["yafim"]
	for name, res := range got {
		switch {
		case reject && res != nil:
			t.Errorf("%s accepted the input: %s", name, describe(res))
		case !reject && res == nil:
			t.Errorf("%s rejected the input", name)
		case !reject && ref != nil && !sameResult(res, ref):
			t.Errorf("%s = %s, yafim = %s", name, describe(res), describe(ref))
		}
	}
}

func sameResult(a, b *apriori.Result) bool {
	return a != nil && b != nil && a.MinSupport == b.MinSupport && a.Equal(b)
}

// describe renders a result's threshold and itemsets with their counts.
func describe(r *apriori.Result) string {
	if r == nil {
		return "rejected"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "min count %d:", r.MinSupport)
	for _, l := range r.Levels {
		for _, sc := range l.Sets {
			fmt.Fprintf(&sb, " %v=%d", sc.Set, sc.Count)
		}
	}
	return sb.String()
}
