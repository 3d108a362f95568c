// Package eclat implements Zaki's Eclat algorithm: frequent itemset mining
// over a vertical database layout, where each item maps to the sorted list
// of transaction ids containing it and supports are computed by tidlist
// intersection during a depth-first search of the prefix tree.
//
// Eclat serves two roles here: a related-work baseline (the paper discusses
// Dist-Eclat/BigFIM) and an independent correctness oracle for the Apriori
// implementations — a structurally different algorithm agreeing on every
// count is strong evidence both are right.
package eclat

import (
	"fmt"

	"yafim/internal/apriori"
	"yafim/internal/itemset"
)

// Mine runs Eclat over db at the given relative minimum support, returning
// results in the same shape as the sequential Apriori miner.
func Mine(db *itemset.DB, minSupport float64) (*apriori.Result, error) {
	if db.Len() == 0 {
		return nil, fmt.Errorf("eclat: empty database %q", db.Name)
	}
	minCount := db.MinSupportCount(minSupport)

	// Build the vertical layout, keeping only frequent items.
	vertical := make([]itemset.Tidlist, db.NumItems())
	for ti, tr := range db.Transactions {
		for _, it := range tr.Items {
			vertical[it] = append(vertical[it], int32(ti))
		}
	}
	type cell struct {
		item itemset.Item
		tids itemset.Tidlist
	}
	var frontier []cell
	for it, tids := range vertical {
		if len(tids) >= minCount {
			frontier = append(frontier, cell{itemset.Item(it), tids})
		}
	}

	byLevel := map[int][]apriori.SetCount{}
	var dfs func(prefix itemset.Itemset, ext []cell)
	dfs = func(prefix itemset.Itemset, ext []cell) {
		for i, c := range ext {
			set := prefix.Extend(c.item)
			byLevel[set.Len()] = append(byLevel[set.Len()],
				apriori.SetCount{Set: set, Count: len(c.tids)})
			var next []cell
			for _, d := range ext[i+1:] {
				shared := c.tids.Intersect(d.tids)
				if len(shared) >= minCount {
					next = append(next, cell{d.item, shared})
				}
			}
			if len(next) > 0 {
				dfs(set, next)
			}
		}
	}
	dfs(nil, frontier)

	res := &apriori.Result{MinSupport: minCount}
	for k := 1; ; k++ {
		sets, ok := byLevel[k]
		if !ok {
			break
		}
		res.Levels = append(res.Levels, apriori.NewLevel(k, sets))
	}
	return res, nil
}
