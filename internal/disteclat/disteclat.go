// Package disteclat implements Dist-Eclat (Moens, Aksehirli & Goethals,
// reference [24] of the paper) on the RDD engine: the vertical-layout
// counterpart to YAFIM's level-wise mining. The tidlist database is built
// with one shuffle, broadcast to the cluster, and the prefix subtrees of
// the search space are then mined depth-first in parallel, one task batch
// per group of frequent-item prefixes.
//
// Where YAFIM runs one synchronised job per itemset length, Dist-Eclat
// needs a fixed number of jobs regardless of lattice depth — the speed-
// oriented trade-off its authors describe — at the cost of broadcasting the
// vertical database to every worker.
//
// Dist-Eclat is RDD-Eclat with prefix classes of depth 1, so this package
// is a preset of internal/rddeclat and holds no mining code of its own.
package disteclat

import (
	"yafim/internal/apriori"
	"yafim/internal/dfs"
	"yafim/internal/rdd"
	"yafim/internal/rddeclat"
)

// Config parameterises a mining run; Mine overrides ClassDepth.
type Config = rddeclat.Config

// Mine runs Dist-Eclat over the transaction file at path: rddeclat.Mine
// with one equivalence class per frequent item.
func Mine(ctx *rdd.Context, fs *dfs.FileSystem, path string, cfg Config) (*apriori.Trace, error) {
	cfg.ClassDepth = 1
	return rddeclat.Mine(ctx, fs, path, cfg)
}
