package main

import (
	"fmt"

	"yafim/internal/apriori"
	"yafim/internal/hashtree"
	"yafim/internal/itemset"
)

// The kernel spans time the benchmark's own calls to the counting kernels,
// made on each pass's real inputs taken from the mined levels, and check
// every count they return against the oracle.

// aprioriKernels runs, for every pass k >= 2 of res, apriori.Gen on the
// frequent (k-1)-itemsets, hashtree.Build on the candidates, and
// (*Tree).CountSupports over the whole database, each under its span. It
// returns the hash-tree operation count.
func aprioriKernels(tr *tracer, parent int, db *itemset.DB, res *apriori.Result) (ops int64, err error) {
	for k := 2; k <= res.MaxK()+1; k++ {
		prev := res.Frequent(k - 1)
		lk := make([]itemset.Itemset, len(prev))
		for i, sc := range prev {
			lk[i] = sc.Set
		}
		sp := tr.begin("apriori.gen_s", parent)
		cands, err := apriori.Gen(lk)
		tr.end(sp)
		if err != nil {
			return 0, fmt.Errorf("apriori.Gen pass %d: %w", k, err)
		}
		if len(cands) == 0 {
			break
		}
		sp = tr.begin("hashtree.build_s", parent)
		tree := hashtree.Build(cands)
		tr.end(sp)
		sp = tr.begin("hashtree.count_s", parent)
		counts, n := tree.CountSupports(db.Transactions)
		tr.end(sp)
		ops += n
		frequent := 0
		for i, c := range counts {
			if c < res.MinSupport {
				continue
			}
			frequent++
			if want, ok := res.Support(tree.Candidate(i)); !ok || want != c {
				return 0, fmt.Errorf("hash tree pass %d: %v counted %d, oracle %d (frequent %v)", k, tree.Candidate(i), c, want, ok)
			}
		}
		if frequent != len(res.Frequent(k)) {
			return 0, fmt.Errorf("hash tree pass %d: %d frequent, oracle %d", k, frequent, len(res.Frequent(k)))
		}
	}
	return ops, nil
}

// andCountKernel replays the class-mining intersections of vertical Eclat:
// for every frequent k-itemset (k >= 2), the tidset bitset of its
// (k-1)-prefix AND the bitset of its last item, popcounted by
// (*Bitset).AndCount. Prefix bitsets are built outside the span, one level
// at a time; the span covers the AndCount calls of the level.
func andCountKernel(tr *tracer, parent int, db *itemset.DB, res *apriori.Result) error {
	items := make([]*itemset.Bitset, db.NumItems())
	for i := range items {
		items[i] = itemset.NewBitset(db.Len())
	}
	for t, tx := range db.Transactions {
		for _, it := range tx.Items {
			items[it].Set(t)
		}
	}
	prefix := map[string]*itemset.Bitset{}
	for _, sc := range res.Frequent(1) {
		prefix[sc.Set.Key()] = items[sc.Set[0]]
	}
	for k := 2; k <= res.MaxK(); k++ {
		level := res.Frequent(k)
		left := make([]*itemset.Bitset, len(level))
		for i, sc := range level {
			p := prefix[sc.Set[:k-1].Key()]
			if p == nil {
				return fmt.Errorf("andcount: prefix of %v is not frequent", sc.Set)
			}
			left[i] = p
		}
		counts := make([]int, len(level))
		sp := tr.begin("itemset.andcount_s", parent)
		for i, sc := range level {
			counts[i] = left[i].AndCount(items[sc.Set[k-1]])
		}
		tr.end(sp)
		next := make(map[string]*itemset.Bitset, len(level))
		for i, sc := range level {
			if counts[i] != sc.Count {
				return fmt.Errorf("andcount: %v counted %d, oracle %d", sc.Set, counts[i], sc.Count)
			}
			if k < res.MaxK() {
				next[sc.Set.Key()] = left[i].And(items[sc.Set[k-1]])
			}
		}
		prefix = next
	}
	return nil
}
