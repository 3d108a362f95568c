package main

import (
	"bytes"
	"compress/gzip"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"yafim/internal/datagen"
	"yafim/internal/eclat"
	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

// pb is a minimal protobuf encoder for hand-built profiles.
type pb []byte

func (b pb) varint(v uint64) pb {
	for v >= 0x80 {
		b = append(b, byte(v)|0x80)
		v >>= 7
	}
	return append(b, byte(v))
}

func (b pb) uint(num int, v uint64) pb { return b.varint(uint64(num) << 3).varint(v) }

func (b pb) bytes(num int, data []byte) pb {
	return append(b.varint(uint64(num)<<3|2).varint(uint64(len(data))), data...)
}

func (b pb) packed(num int, vs ...uint64) pb {
	var inner pb
	for _, v := range vs {
		inner = inner.varint(v)
	}
	return b.bytes(num, inner)
}

// cannedProfile builds a gzipped CPU profile with the given stacks: each
// stack is a list of locations from the leaf out, each location a list of
// function names with inlined callees first.
func cannedProfile(stacks [][][]string, nanos []int64) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds"}
	str := func(s string) uint64 {
		for i, x := range strs {
			if x == s {
				return uint64(i)
			}
		}
		strs = append(strs, s)
		return uint64(len(strs) - 1)
	}
	var p pb
	p = p.bytes(1, pb(nil).uint(1, str("samples")).uint(2, str("count")))
	p = p.bytes(1, pb(nil).uint(1, str("cpu")).uint(2, str("nanoseconds")))
	funcs := map[string]uint64{}
	loc := uint64(0)
	for i, stack := range stacks {
		var ids []uint64
		for _, lines := range stack {
			loc++
			l := pb(nil).uint(1, loc)
			for _, fn := range lines {
				id, ok := funcs[fn]
				if !ok {
					id = uint64(len(funcs) + 1)
					funcs[fn] = id
					p = p.bytes(5, pb(nil).uint(1, id).uint(2, str(fn)))
				}
				l = l.bytes(4, pb(nil).uint(1, id).uint(2, 7))
			}
			p = p.bytes(4, l)
			ids = append(ids, loc)
		}
		p = p.bytes(2, pb(nil).packed(1, ids...).packed(2, 1, uint64(nanos[i])))
	}
	for _, s := range strs {
		p = p.bytes(6, []byte(s))
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write(p) //nolint:errcheck // bytes.Buffer
	zw.Close()
	return buf.Bytes()
}

// An inlined callee owns its sample: itemset.(*Bitset).Get inlined into
// hashtree.(*Matcher).walk is itemset time, not hash-tree time.
func TestInlinedFrameCountsToItsOwnPackage(t *testing.T) {
	raw := cannedProfile([][][]string{
		{{"yafim/internal/itemset.(*Bitset).Get", "yafim/internal/hashtree.(*Matcher).walk"},
			{"yafim/internal/hashtree.(*Tree).CountSupports"}},
		{{"yafim/internal/hashtree.(*Matcher).walk"}, {"yafim/internal/yafim.Mine"}},
	}, []int64{30e6, 20e6})
	samples, err := parseCPUProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 2 || len(samples[0].frames) != 3 ||
		samples[0].frames[0] != "yafim/internal/itemset.(*Bitset).Get" {
		t.Fatalf("decoded %+v", samples)
	}
	got, total := selfTimes(samples)
	if got["itemset"] != 0.03 || got["hashtree"] != 0.02 || total != 0.05 {
		t.Errorf("self times %v, total %v", got, total)
	}
}

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		frames []string
		want   string
	}{
		// Runtime work counts to its nearest repository caller.
		{[]string{"runtime.memmove", "runtime.growslice", "yafim/internal/rdd.(*Context).runTasks.func1"}, "rdd"},
		// GC anywhere on the stack is GC, even a mutator assist.
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "yafim/internal/apriori.Gen"}, bucketGC},
		{[]string{"runtime.bgsweep"}, bucketGC},
		// Generic instantiations may carry dots and slashes in brackets.
		{[]string{"yafim/internal/rdd.MapPartitions[go.shape.struct { yafim/internal/itemset.x }]"}, "rdd"},
		{[]string{"yafim.MineContext"}, "facade"},
		// No repository frame: the benchmark's own code, the stdlib.
		{[]string{"main.(*runner).mineChecked"}, bucketOther},
		{[]string{"net/http.(*conn).serve", "runtime.goexit"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := attribute(c.frames); got != c.want {
			t.Errorf("attribute(%q) = %q, want %q", c.frames, got, c.want)
		}
	}
}

// A real profile of the hash-tree kernel decodes, and its buckets sum to
// its total.
func TestRealProfileSumsToTotal(t *testing.T) {
	db, err := datagen.ChessLike(0.25, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := eclat.Mine(db, 0.85)
	if err != nil {
		t.Fatal(err)
	}
	var cands []itemset.Itemset
	for _, sc := range res.Frequent(3) {
		cands = append(cands, sc.Set)
	}
	tree := hashtree.Build(cands)
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	for end := time.Now().Add(300 * time.Millisecond); time.Now().Before(end); {
		tree.CountSupports(db.Transactions)
	}
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, total := selfTimes(samples)
	if total <= 0 {
		t.Fatal("no samples")
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9 {
		t.Errorf("buckets sum to %v, total %v", sum, total)
	}
	l := newLayers(1)
	if err := l.cpu(got, total); err != nil {
		t.Fatal(err)
	}
	if l.m["profile.cpu_s"].Value != total {
		t.Errorf("profile.cpu_s = %v, want %v", l.m["profile.cpu_s"].Value, total)
	}
}
