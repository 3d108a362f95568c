package mrapriori

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"yafim/internal/hashtree"
	"yafim/internal/itemset"
	"yafim/internal/mapreduce"
	"yafim/internal/sim"
)

// itemMapper implements pass 1 (Algorithm 2 of the paper, in MapReduce
// form): emit <item, 1> for every item of every transaction.
type itemMapper struct{}

func (m *itemMapper) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

func (m *itemMapper) Cleanup(mapreduce.Emit, *sim.Ledger) error { return nil }

func (m *itemMapper) Map(_ int64, line string, emit mapreduce.Emit, led *sim.Ledger) error {
	set, err := itemset.ParseTransaction(line)
	if err != nil {
		return fmt.Errorf("mrapriori: transaction: %w", err)
	}
	for _, it := range set {
		emit(strconv.Itoa(int(it)), "1") // the 1-itemset's FormatSet key
	}
	led.AddCPU(float64(len(line)))
	return nil
}

// countMapper implements passes k >= 2 (Algorithm 3 in MapReduce form): load
// the candidate batch from the distributed cache into hash trees, then count
// candidate occurrences across the task's whole input split into dense
// per-tree arrays (in-mapper combining) and emit one <candidate, count>
// record per locally occurring candidate at cleanup — instead of one
// <candidate, 1> record per match, which is what the combiner would
// otherwise have to crunch back down.
//
// The trees themselves are read-only and come from the job's shared memo
// when it has one (see CountMappers); each task owns only its matchers and
// counts.
type countMapper struct {
	cachePath string
	shared    *sharedTrees // nil: every task builds its own trees
	trees     *candidateTrees
	matchers  []*hashtree.Matcher
	counts    [][]int // per tree: dense candidate counts for this split
	ops       float64 // batched subset-op CPU charges, flushed periodically
	rows      int
}

// CountMappers returns the NewMapper of a candidate-counting job over the
// distributed-cache file at cachePath. The job's map tasks share one
// read-only set of candidate hash trees, built the first time a task needs
// it, the way a broadcast variable is shared in Spark. The ledger still
// charges every task the full tree construction, as Hadoop pays it per
// task; only the process stops redoing the work. Call it once per job: the
// shared trees become garbage with the job.
func CountMappers(cachePath string) func() mapreduce.Mapper {
	shared := &sharedTrees{}
	return func() mapreduce.Mapper { return &countMapper{cachePath: cachePath, shared: shared} }
}

func (m *countMapper) Setup(cache mapreduce.CacheFiles, led *sim.Ledger) error {
	data, ok := cache[m.cachePath]
	if !ok {
		return fmt.Errorf("mrapriori: candidate cache file %s not localised", m.cachePath)
	}
	trees, err := m.shared.get(data)
	if err != nil {
		return fmt.Errorf("mrapriori: candidate file %s: %w", m.cachePath, err)
	}
	m.trees = trees
	for _, tree := range trees.trees {
		m.matchers = append(m.matchers, tree.NewMatcher())
		m.counts = append(m.counts, make([]int, tree.Len()))
		led.AddCPU(float64(tree.Len() * tree.K())) // tree construction
	}
	return nil
}

// candidateTrees is one parsed candidate batch: a hash tree per candidate
// length, in ascending length order, plus each candidate's emitted key text.
// It is read-only once built, so any number of tasks may count against it
// concurrently, each with its own matchers.
type candidateTrees struct {
	blob  []byte // the cache bytes it was parsed from
	trees []*hashtree.Tree
	keys  [][]string // per tree: candidate index -> emitted key text
}

func buildTrees(blob []byte) (*candidateTrees, error) {
	byLen := map[int][]itemset.Itemset{}
	for _, line := range strings.Split(string(blob), "\n") {
		if line == "" {
			continue
		}
		set, err := itemset.ParseTransaction(line)
		if err != nil {
			return nil, err
		}
		if set.Len() == 0 {
			return nil, errors.New("blank candidate line")
		}
		byLen[set.Len()] = append(byLen[set.Len()], set)
	}
	if len(byLen) == 0 {
		return nil, errors.New("no candidates")
	}
	lengths := make([]int, 0, len(byLen))
	for k := range byLen {
		lengths = append(lengths, k)
	}
	sort.Ints(lengths) // deterministic tree order
	ct := &candidateTrees{blob: blob}
	for _, k := range lengths {
		cands := byLen[k]
		keys := make([]string, len(cands))
		for i, c := range cands {
			keys[i] = itemset.FormatSet(c)
		}
		ct.trees = append(ct.trees, hashtree.Build(cands))
		ct.keys = append(ct.keys, keys)
	}
	return ct, nil
}

// sharedTrees memoizes one job's candidate trees. The first task to arrive
// builds them from its localised blob; a task whose blob differs byte for
// byte from the memoized one builds its own instead. A failed build is never
// memoized, so every task sees the parse error. A nil *sharedTrees builds
// per task.
type sharedTrees struct {
	mu    sync.Mutex
	trees *candidateTrees
}

func (s *sharedTrees) get(blob []byte) (*candidateTrees, error) {
	if s == nil {
		return buildTrees(blob)
	}
	trees, err := s.memo(blob)
	if err != nil || bytes.Equal(trees.blob, blob) {
		return trees, err
	}
	return buildTrees(blob)
}

func (s *sharedTrees) memo(blob []byte) (*candidateTrees, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.trees == nil {
		trees, err := buildTrees(blob)
		if err != nil {
			return nil, err
		}
		s.trees = trees
	}
	return s.trees, nil
}

// opsFlushRows is how many rows of subset-enumeration charges a count
// mapper batches locally before flushing them to the task ledger.
const opsFlushRows = 512

func (m *countMapper) Cleanup(emit mapreduce.Emit, led *sim.Ledger) error {
	led.AddCPU(m.ops)
	m.ops = 0
	for ti, counts := range m.counts {
		for i, c := range counts {
			if c != 0 {
				emit(m.trees.keys[ti][i], strconv.Itoa(c))
			}
		}
	}
	return nil
}

func (m *countMapper) Map(_ int64, line string, emit mapreduce.Emit, led *sim.Ledger) error {
	set, err := itemset.ParseTransaction(line)
	if err != nil {
		return fmt.Errorf("mrapriori: transaction: %w", err)
	}
	led.AddCPU(float64(len(line)))
	for ti, matcher := range m.matchers {
		counts := m.counts[ti]
		m.ops += float64(matcher.Subset(set, func(i int) { counts[i]++ }))
	}
	if m.rows++; m.rows%opsFlushRows == 0 {
		led.AddCPU(m.ops)
		m.ops = 0
	}
	return nil
}

// sumReducer sums the integer values of a key; it serves as the combiner of
// every pass and as the (unpruned) reducer of pass 1.
type sumReducer struct{}

func (sumReducer) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

func (sumReducer) Reduce(key string, values []string, emit mapreduce.Emit, _ *sim.Ledger) error {
	total, err := sumValues(key, values)
	if err != nil {
		return err
	}
	emit(key, strconv.Itoa(total))
	return nil
}

// prunedSumReducer sums and keeps only keys meeting the minimum support —
// lines 11-18 of Algorithm 3.
type prunedSumReducer struct{ minCount int }

func (prunedSumReducer) Setup(mapreduce.CacheFiles, *sim.Ledger) error { return nil }

func (r prunedSumReducer) Reduce(key string, values []string, emit mapreduce.Emit, _ *sim.Ledger) error {
	total, err := sumValues(key, values)
	if err != nil {
		return err
	}
	if total >= r.minCount {
		emit(key, strconv.Itoa(total))
	}
	return nil
}

func sumValues(key string, values []string) (int, error) {
	total := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			return 0, fmt.Errorf("mrapriori: bad partial count %q for key %q", v, key)
		}
		total += n
	}
	return total, nil
}
