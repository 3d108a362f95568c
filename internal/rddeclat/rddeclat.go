// Package rddeclat implements RDD-Eclat (Singh, Garg & Mishra, arXiv
// 1912.06415) as a first-class metered engine: Zaki's Eclat — frequent
// itemset mining over a vertical tidset layout — parallelized on the
// Spark-substitute RDD engine with equivalence-class partitioning and dense
// word-at-a-time bitset kernels.
//
// The run is a fixed number of RDD jobs regardless of lattice depth:
//
//   - Pass 1 is YAFIM's Phase I (yafim.LoadTransactions and
//     yafim.FrequentItems) with the transactions RDD cached, plus global
//     transaction ids assigned from per-partition offsets.
//   - The vertical build shuffles (dense item id, tidlist-fragment) pairs —
//     map-side combined so each partition emits one fragment per occurring
//     item — merges them into full tidlists, and converts the collected
//     lists into one transaction bitset per frequent item, keyed by the
//     itemset.ItemIndex dense id and broadcast to the cluster.
//   - At class depth 2 (the default), pass 2 partitions the k=1 prefix
//     equivalence classes across tasks and intersects every item pair with
//     a fused AND+popcount word loop, yielding the frequent 2-itemsets.
//   - The deep pass partitions the equivalence classes across tasks; each
//     class is mined depth-first locally, carrying intersected bitsets down
//     the recursion exactly like the sequential internal/eclat oracle
//     carries tidlists — so the two engines agree set for set and count for
//     count. Config.ClassDepth sets the class prefix length: 2 gives one
//     class per frequent 2-itemset, the granularity the RDD-Eclat variants
//     found to balance best; 1 gives one prefix subtree per frequent item
//     and skips pass 2, which is Dist-Eclat (Moens, Aksehirli & Goethals,
//     reference [24] of the paper; internal/disteclat is that preset).
//
// Every intersection charges the task ledger one op per 64-bit word
// touched, so the virtual timeline prices the vertical kernel the same way
// the hash-tree scan prices subset enumeration. Fault tolerance is
// inherited from the RDD engine: lost cached partitions and shuffle map
// outputs are recomputed from lineage, and a node crash mid-intersection
// only re-runs the class tasks the dead node held.
package rddeclat

import (
	"fmt"
	"sort"

	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/itemset"
	"yafim/internal/rdd"
	"yafim/internal/sim"
	"yafim/internal/yafim"
)

// Config parameterises a mining run.
type Config struct {
	// MinSupport is the relative minimum support threshold in (0,1].
	MinSupport float64
	// NumPartitions sets task granularity (0 = cluster core count).
	NumPartitions int
	// MaxK stops after frequent itemsets of this size (0 = unbounded).
	MaxK int
	// ClassDepth is the prefix length of the equivalence classes the deep
	// pass distributes: 2 (or 0) mines one class per frequent 2-itemset
	// after a pair pass; 1 mines one prefix subtree per frequent item
	// straight after the vertical build, as Dist-Eclat does.
	ClassDepth int
}

// vertical is the broadcast payload of the mining passes: per frequent
// item (by dense id), the bitset of transactions containing it.
type vertical struct {
	ix    *itemset.ItemIndex
	bits  []*itemset.Bitset
	words int // words per bitset, the cost unit of one intersection
}

// pair2 is one frequent 2-itemset by dense ids (I < J) with its exact
// support — the output of pass 2 and the class descriptor of the deep pass.
// At class depth 1 the descriptor is the single item I, with J = -1.
type pair2 struct {
	I, J  int32
	Count int32
}

// SizeBytes implements rdd.Sizer for collect cost estimation.
func (pair2) SizeBytes() int64 { return 12 }

// classIndex is the depth-2 deep pass's second broadcast: for every dense id
// i, the sorted dense ids j > i with {i,j} frequent. The siblings of
// equivalence class (i,j) are exactly the partners of i beyond j.
type classIndex struct {
	partners [][]int32
}

// Mine runs RDD-Eclat over the transaction file at path in the DFS.
func Mine(ctx *rdd.Context, fs *dfs.FileSystem, path string, cfg Config) (*apriori.Trace, error) {
	if cfg.MinSupport <= 0 || cfg.MinSupport > 1 {
		return nil, fmt.Errorf("rddeclat: MinSupport %v out of (0,1]", cfg.MinSupport)
	}
	depth := cfg.ClassDepth
	if depth == 0 {
		depth = 2
	}
	if depth != 1 && depth != 2 {
		return nil, fmt.Errorf("rddeclat: ClassDepth %d is neither 1 nor 2", cfg.ClassDepth)
	}
	parts := cfg.NumPartitions
	if parts <= 0 {
		parts = ctx.Config().TotalCores()
	}

	trans, err := yafim.LoadTransactions(ctx, fs, path, parts)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: %w", err)
	}
	trans.Cache()

	rec := ctx.Recorder()
	rec.SetPass(1)
	passStart := ctx.TotalDuration()
	passMark := rec.Counters()

	// Global transaction ids: per-partition counts, then prefix offsets.
	// The same job doubles as the transaction count, so pass 1 needs no
	// separate Count action.
	counts, err := rdd.Collect(rdd.MapPartitions(trans, "partitionSizes",
		func(_ int, rows []itemset.Itemset, _ *sim.Ledger) ([]int, error) {
			return []int{len(rows)}, nil
		}))
	if err != nil {
		return nil, fmt.Errorf("rddeclat: sizing partitions: %w", err)
	}
	offsets := make([]int32, len(counts)+1)
	for i, c := range counts {
		offsets[i+1] = offsets[i] + int32(c)
	}
	n := int64(offsets[len(counts)])
	if n == 0 {
		return nil, fmt.Errorf("rddeclat: %s holds no transactions", path)
	}
	minCount := itemset.MinSupportCount(cfg.MinSupport, n)
	rec.ObservePass("rdd", 1, int(n))

	l1, err := yafim.FrequentItems(trans, minCount, parts)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: pass 1: %w", err)
	}
	l1Sets := make([]itemset.Itemset, len(l1))
	for i, sc := range l1 {
		l1Sets[i] = sc.Set
	}

	res := &apriori.Result{MinSupport: minCount}
	trace := &apriori.Trace{Result: res}
	endPass := func(k, candidates, frequent int) {
		// Pass boundary: free the pass's shuffle output before the next
		// pass starts, then snapshot the counter delta (the same
		// iteration-scoped unpersist discipline as the YAFIM driver).
		ctx.FreeShuffles()
		trace.Passes = append(trace.Passes, apriori.PassStat{
			K: k, Candidates: candidates, Frequent: frequent,
			Duration: ctx.TotalDuration() - passStart,
			Counters: rec.Counters().Sub(passMark),
		})
	}
	endPass(1, int(n), len(l1))
	if len(l1) == 0 {
		return trace, nil
	}
	res.Levels = append(res.Levels, apriori.NewLevel(1, l1))
	if cfg.MaxK == 1 {
		return trace, nil
	}

	// Vertical build: dense ids for the frequent items, then one shuffle
	// turning the horizontal layout into per-item tidlists. Each input
	// partition emits at most one tidlist fragment per frequent item
	// (map-side combining: shuffle volume is bounded by items × partitions,
	// not by item occurrences). At depth 1 this already belongs to the deep
	// pass, whose candidates are the m prefix classes.
	ix := itemset.NewItemIndex(l1Sets)
	m := ix.Len()
	rec.SetPass(2)
	passStart = ctx.TotalDuration()
	passMark = rec.Counters()
	if depth == 1 {
		rec.ObservePass("rdd", 2, m)
	} else {
		rec.ObservePass("rdd", 2, m*(m-1)/2)
	}
	tidPairs := rdd.MapPartitions(trans, "itemTids",
		func(p int, rows []itemset.Itemset, led *sim.Ledger) ([]rdd.Pair[int32, itemset.Tidlist], error) {
			lists := make([]itemset.Tidlist, m)
			occurrences := 0
			for i, t := range rows {
				if i%yafim.CancelCheckRows == 0 {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
				}
				tid := offsets[p] + int32(i)
				for _, it := range t {
					if d := ix.DenseOf(it); d >= 0 {
						lists[d] = append(lists[d], tid)
						occurrences++
					}
				}
			}
			led.AddCPU(float64(occurrences))
			out := make([]rdd.Pair[int32, itemset.Tidlist], 0, m)
			for d, l := range lists {
				if len(l) > 0 {
					out = append(out, rdd.Pair[int32, itemset.Tidlist]{Key: int32(d), Value: l})
				}
			}
			return out, nil
		})
	tidlists := rdd.ReduceByKey(tidPairs, "tidlists", itemset.Tidlist.Merge, parts)
	collected, err := rdd.Collect(tidlists)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: building tidlists: %w", err)
	}

	// Driver-side conversion to the dense bitset layout, broadcast once and
	// reused by every mining pass.
	v := &vertical{ix: ix, bits: make([]*itemset.Bitset, m), words: (int(n) + 63) / 64}
	var payload int64
	for _, kv := range collected {
		b := itemset.NewBitset(int(n))
		for _, tid := range kv.Value {
			b.Set(int(tid))
		}
		v.bits[kv.Key] = b
		payload += int64(8*v.words) + 4
	}
	bcVert := rdd.NewBroadcast(ctx, v, payload)
	ids := seq(m)

	// The deep pass's classes. At depth 1 each frequent item i is a class
	// whose siblings are all items after it. At depth 2 each frequent
	// 2-itemset (i,j) from pass 2 is a class whose siblings are the partners
	// of i beyond j, looked up in a second broadcast.
	var classes []pair2
	var bcClasses *rdd.Broadcast[*classIndex]
	classesName := "prefixClasses"
	if depth == 1 {
		classes = make([]pair2, m)
		for i := range classes {
			classes[i] = pair2{I: int32(i), J: -1}
		}
	} else {
		l2Pairs, err := frequentPairs(ctx, bcVert, ids, minCount, parts)
		if err != nil {
			return nil, err
		}
		l2 := make([]apriori.SetCount, len(l2Pairs))
		for i, p := range l2Pairs {
			l2[i] = apriori.SetCount{
				Set:   itemset.New(ix.Item(p.I), ix.Item(p.J)),
				Count: int(p.Count),
			}
		}
		endPass(2, m*(m-1)/2, len(l2))
		if len(l2) == 0 {
			return trace, nil
		}
		res.Levels = append(res.Levels, apriori.NewLevel(2, l2))
		if cfg.MaxK == 2 {
			return trace, nil
		}

		rec.SetPass(3)
		passStart = ctx.TotalDuration()
		passMark = rec.Counters()
		rec.ObservePass("rdd", 3, len(l2Pairs))
		ci := &classIndex{partners: make([][]int32, m)}
		for _, p := range l2Pairs {
			ci.partners[p.I] = append(ci.partners[p.I], p.J)
		}
		bcClasses = rdd.NewBroadcast(ctx, ci, int64(4*len(l2Pairs)))
		classes, classesName = l2Pairs, "eqClasses"
	}

	// Deep pass: the classes partitioned across tasks, each mined
	// depth-first locally.
	deepSets := rdd.MapPartitions(rdd.Parallelize(ctx, classesName, classes, parts), "mineClasses",
		func(_ int, cls []pair2, led *sim.Ledger) ([]apriori.SetCount, error) {
			vt := bcVert.Acquire(led)
			var ci *classIndex
			if bcClasses != nil {
				ci = bcClasses.Acquire(led)
			}
			var out []apriori.SetCount
			pool := &bitPool{n: int(n)}
			for _, c := range cls {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				if c.J < 0 {
					// The base is item I's broadcast bitset itself, which
					// mineClass only reads.
					prefix := itemset.New(vt.ix.Item(c.I))
					led.AddCPU(float64(mineClass(vt, prefix, vt.bits[c.I], ids[c.I+1:],
						minCount, cfg.MaxK, pool, &out)))
					continue
				}
				partners := ci.partners[c.I]
				k := sort.Search(len(partners), func(x int) bool { return partners[x] > c.J })
				siblings := partners[k:]
				if len(siblings) == 0 {
					continue
				}
				base := pool.take()
				base.AndCountInto(vt.bits[c.I], vt.bits[c.J])
				prefix := itemset.New(vt.ix.Item(c.I), vt.ix.Item(c.J))
				ops := int64(vt.words) + mineClass(vt, prefix, base, siblings, minCount, cfg.MaxK, pool, &out)
				pool.put(base)
				led.AddCPU(float64(ops))
			}
			return out, nil
		})
	deep, err := rdd.Collect(deepSets)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: mining classes: %w", err)
	}
	byLevel := map[int][]apriori.SetCount{}
	for _, sc := range deep {
		byLevel[sc.Set.Len()] = append(byLevel[sc.Set.Len()], sc)
	}
	for k := depth + 1; ; k++ {
		sets, ok := byLevel[k]
		if !ok {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, sets))
	}
	endPass(res.MaxK(), len(classes), len(deep))
	return trace, nil
}

// frequentPairs is pass 2 at class depth 2: the k=1 prefix equivalence
// classes partitioned across tasks, class i intersecting item i against
// every item j > i with one fused AND+popcount pass over the words. The
// frequent pairs come back in (I, J) order.
func frequentPairs(ctx *rdd.Context, bcVert *rdd.Broadcast[*vertical], ids []int32,
	minCount, parts int) ([]pair2, error) {
	m := int32(len(ids))
	f2 := rdd.MapPartitions(rdd.Parallelize(ctx, "prefixClasses", ids, parts), "intersectC2",
		func(_ int, idxs []int32, led *sim.Ledger) ([]pair2, error) {
			vt := bcVert.Acquire(led)
			var out []pair2
			var ops int64
			for _, i := range idxs {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				bi := vt.bits[i]
				for j := i + 1; j < m; j++ {
					ops += int64(vt.words)
					if cnt := bi.AndCount(vt.bits[j]); cnt >= minCount {
						out = append(out, pair2{I: i, J: j, Count: int32(cnt)})
					}
				}
				led.AddCPU(float64(ops))
				ops = 0
			}
			return out, nil
		})
	l2Pairs, err := rdd.Collect(f2)
	if err != nil {
		return nil, fmt.Errorf("rddeclat: pass 2: %w", err)
	}
	// Collect interleaves partition outputs by task order; restore the
	// global (I, J) order the equivalence-class walk relies on.
	sort.Slice(l2Pairs, func(a, b int) bool {
		if l2Pairs[a].I != l2Pairs[b].I {
			return l2Pairs[a].I < l2Pairs[b].I
		}
		return l2Pairs[a].J < l2Pairs[b].J
	})
	return l2Pairs, nil
}

// cell is one live node of the depth-first walk: a candidate extension item
// (dense id) with its materialised transaction bitset and exact support.
type cell struct {
	item  int32
	bits  *itemset.Bitset
	count int
}

// bitPool recycles bitsets across the depth-first walk so each class task
// allocates only as many as its deepest recursion holds live at once.
type bitPool struct {
	free []*itemset.Bitset
	n    int
}

func (p *bitPool) take() *itemset.Bitset {
	if l := len(p.free); l > 0 {
		b := p.free[l-1]
		p.free = p.free[:l-1]
		return b
	}
	return itemset.NewBitset(p.n)
}

func (p *bitPool) put(b *itemset.Bitset) { p.free = append(p.free, b) }

// mineClass mines one equivalence class depth-first: prefix, whose
// transactions are base, is extended by each sibling item (dense ids), and
// every frequent extension's subtree is walked in turn. base and the
// broadcast sibling bitsets are only read; the walk returns to pool exactly
// the bitsets it took from it, so a broadcast bitset may serve as base.
//
// mineClass returns the ops to charge: one per 64-bit word touched by an
// intersection — the dense word-at-a-time kernel is the engine's unit of
// CPU cost, mirroring how the hash-tree engines charge per candidate probe.
func mineClass(v *vertical, prefix itemset.Itemset, base *itemset.Bitset, siblings []int32,
	minCount, maxK int, pool *bitPool, out *[]apriori.SetCount) int64 {

	var ops int64
	var walk func(prefix itemset.Itemset, base *itemset.Bitset, cands []cell)
	walk = func(prefix itemset.Itemset, base *itemset.Bitset, cands []cell) {
		var ext []cell
		for _, c := range cands {
			tmp := pool.take()
			cnt := tmp.AndCountInto(base, c.bits)
			ops += int64(v.words)
			if cnt >= minCount {
				ext = append(ext, cell{item: c.item, bits: tmp, count: cnt})
			} else {
				pool.put(tmp)
			}
		}
		for idx, e := range ext {
			set := prefix.Extend(v.ix.Item(e.item))
			*out = append(*out, apriori.SetCount{Set: set, Count: e.count})
			if maxK == 0 || set.Len() < maxK {
				walk(set, e.bits, ext[idx+1:])
			}
		}
		for _, e := range ext {
			pool.put(e.bits)
		}
	}

	root := make([]cell, len(siblings))
	for i, s := range siblings {
		root[i] = cell{item: s, bits: v.bits[s]}
	}
	walk(prefix, base, root)
	return ops
}

func seq(n int) []int32 {
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(i)
	}
	return out
}
