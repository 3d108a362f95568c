package main

import (
	"fmt"
	"math"
	"strings"

	"yafim/internal/dist"
	"yafim/internal/obs"
)

// metricDef names a metric and its unit; bound, on an end-to-end metric,
// is the share of the parent's median by which it may worsen.
type metricDef struct {
	name, unit string
	bound      float64
}

// endToEnd are the metrics of an untraced run. mine_s and setup_s get the
// largest bound: on a shared host the memory-bound sim mines drift by a
// tenth between runs minutes apart, and set-up's few milliseconds are
// mostly process-start and page-fault noise.
var endToEnd = []metricDef{
	{"mine_s", "s", 0.25}, {"alloc_mb", "MB", 0.2}, {"peak_rss_mb", "MB", 0.2}, {"setup_s", "s", 0.25},
}

// higherIsBetter lists the per-layer metrics where more is better; for all
// others (times, bytes, counts of work) less is.
var higherIsBetter = map[string]bool{
	"runtime.cpu_per_wall": true, "apriori.useful_ratio": true, "rdd.cache_hit_ratio": true,
	"dist.cache_hit_ratio": true, "dist.local_lease_ratio": true,
}

// cpuModules are the repository modules whose CPU self time the traced run
// reports; runtime.gc_sampled_cpu_s and other.cpu_s complete the profile.
var cpuModules = []string{
	"hashtree", "itemset", "apriori", "rdd", "sim", "yafim", "rddeclat",
	"mapreduce", "mrapriori", "dfs", "dist", "obs",
}

// perLayer are the metrics of a traced run, per mine unless a ratio. A
// layer that did no work on a workload reports 0. Which end-to-end metric
// each should move, and where:
//
//   - the set-up spans (datagen.gen_s, dfs.stage_s, dataset.save_s,
//     dist.register_s) move setup_s on every workload that makes the call;
//   - the module CPU self times move mine_s: hashtree on t10-yafim (about
//     0 on chess-eclat), itemset and rddeclat on chess-eclat,
//     mapreduce/mrapriori/dfs on chess-mr, dist on chess-dist;
//   - runtime.gc_cpu_s and runtime.cpu_per_wall move mine_s and alloc_mb
//     everywhere;
//   - the kernel spans (apriori.gen_s, hashtree.build_s, hashtree.count_s)
//     move mine_s on t10-yafim and chess-mr, itemset.andcount_s on
//     chess-eclat; hashtree.ops moves the cost model's virt_s;
//   - apriori.candidates and useful_ratio (wasted candidates) matter on
//     t10-yafim, apriori.result_sets (output volume) on chess-eclat;
//   - the rdd counters move virt_s, alloc_mb and peak_rss_mb on t10-yafim
//     and chess-eclat; the dfs and mapreduce counters virt_s and mine_s on
//     chess-mr; the sim costs virt_s on the sim workloads;
//   - the dist protocol metrics move mine_s on chess-dist, reassigns its
//     failures, and worker_rss_mb its peak_rss_mb;
//   - obs.trace_overhead (traced over untraced per-mine wall time) moves
//     nothing; it qualifies every other row.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{name: "datagen.gen_s", unit: "s"}, {name: "dfs.stage_s", unit: "s"}, {name: "dataset.save_s", unit: "s"}, {name: "dist.register_s", unit: "s"},
	}
	for _, m := range cpuModules {
		defs = append(defs, metricDef{name: m + ".cpu_s", unit: "s"})
	}
	return append(defs, []metricDef{
		{name: "runtime.gc_sampled_cpu_s", unit: "s"}, {name: "other.cpu_s", unit: "s"}, {name: "profile.cpu_s", unit: "s"},
		{name: "runtime.gc_cpu_s", unit: "s"}, {name: "runtime.cpu_per_wall", unit: "ratio"},
		{name: "apriori.gen_s", unit: "s"}, {name: "hashtree.build_s", unit: "s"}, {name: "hashtree.count_s", unit: "s"},
		{name: "hashtree.ops", unit: "count"}, {name: "itemset.andcount_s", unit: "s"},
		{name: "apriori.candidates", unit: "count"}, {name: "apriori.useful_ratio", unit: "ratio"}, {name: "apriori.result_sets", unit: "count"},
		{name: "rdd.jobs", unit: "count"}, {name: "rdd.tasks", unit: "count"}, {name: "rdd.shuffle_bytes", unit: "B"},
		{name: "rdd.broadcast_bytes", unit: "B"}, {name: "rdd.cache_hit_ratio", unit: "ratio"}, {name: "rdd.peak_shuffle_bytes", unit: "B"},
		{name: "dfs.read_bytes", unit: "B"}, {name: "dfs.write_bytes", unit: "B"},
		{name: "mapreduce.jobs", unit: "count"}, {name: "mapreduce.map_tasks", unit: "count"}, {name: "mapreduce.shuffle_bytes", unit: "B"},
		{name: "sim.cpu_ops", unit: "count"}, {name: "sim.disk_bytes", unit: "B"}, {name: "sim.net_bytes", unit: "B"},
		{name: "sim.task_retries", unit: "count"}, {name: "sim.virt_s", unit: "s"},
		{name: "dist.lease_wait_s", unit: "s"}, {name: "dist.task_s", unit: "s"}, {name: "dist.job_gap_s", unit: "s"},
		{name: "dist.leases", unit: "count"}, {name: "dist.reassigns", unit: "count"}, {name: "dist.input_reads", unit: "count"},
		{name: "dist.cache_hit_ratio", unit: "ratio"}, {name: "dist.local_lease_ratio", unit: "ratio"}, {name: "dist.worker_rss_mb", unit: "MB"},
		{name: "obs.trace_overhead", unit: "ratio"},
	}...)
}()

// layers collects the per-layer metrics of a traced run, every one present
// (0 until set).
type layers struct {
	m     map[string]metric
	mines float64 // traced mines, the divisor of per-mine totals
}

func newLayers(mines float64) *layers {
	l := &layers{m: map[string]metric{}, mines: mines}
	for _, d := range perLayer {
		l.m[d.name] = metric{0, d.unit}
	}
	return l
}

func (l *layers) set(name string, v float64) {
	d, ok := l.m[name]
	if !ok {
		panic("perfbench: undeclared metric " + name)
	}
	d.Value = v
	l.m[name] = d
}

// cpu reports each module's profile self time per mine, with GC and the
// remainder, after checking that the buckets sum to the profile's total.
func (l *layers) cpu(buckets map[string]float64, total float64) error {
	sum := 0.0
	for _, v := range buckets {
		sum += v
	}
	if math.Abs(sum-total) > 1e-9*math.Max(1, total) {
		return fmt.Errorf("profile buckets sum to %v s, profile total %v s", sum, total)
	}
	other := total - buckets[bucketGC]
	for _, m := range cpuModules {
		l.set(m+".cpu_s", buckets[m]/l.mines)
		other -= buckets[m]
	}
	l.set("runtime.gc_sampled_cpu_s", buckets[bucketGC]/l.mines)
	l.set("other.cpu_s", other/l.mines)
	l.set("profile.cpu_s", total/l.mines)
	return nil
}

// mined reports the counters of one traced mine.
func (l *layers) mined(o mineOut, engine string) {
	cands, frequent := 0, 0
	for _, p := range o.trace.Passes {
		cands += p.Candidates
		frequent += p.Frequent
	}
	l.set("apriori.candidates", float64(cands))
	l.set("apriori.useful_ratio", ratio(float64(frequent), float64(cands)))
	l.set("apriori.result_sets", float64(o.trace.Result.NumFrequent()))
	if engine == engineDist {
		return
	}
	c := o.counters
	tasks, mapTasks := 0, 0
	var cpuOps float64
	var disk, net int64
	for _, j := range o.reports {
		for _, s := range j.Stages {
			tasks += s.Tasks
			if strings.HasSuffix(s.Name, "map") {
				mapTasks += s.Tasks
			}
		}
		cost := j.TotalCost()
		cpuOps += cost.CPUOps
		disk += cost.DiskRead + cost.DiskWrite
		net += cost.Net
	}
	l.set("sim.cpu_ops", cpuOps)
	l.set("sim.disk_bytes", float64(disk))
	l.set("sim.net_bytes", float64(net))
	l.set("sim.task_retries", float64(c.TaskRetries))
	l.set("sim.virt_s", o.virt.Seconds())
	l.set("dfs.read_bytes", float64(c.DFSReadBytes))
	l.set("dfs.write_bytes", float64(c.DFSWriteBytes))
	if engine == engineMR {
		l.set("mapreduce.jobs", float64(len(o.reports)))
		l.set("mapreduce.map_tasks", float64(mapTasks))
		l.set("mapreduce.shuffle_bytes", float64(c.ShuffleBytes))
		return
	}
	l.set("rdd.jobs", float64(len(o.reports)))
	l.set("rdd.tasks", float64(tasks))
	l.set("rdd.shuffle_bytes", float64(c.ShuffleBytes))
	l.set("rdd.broadcast_bytes", float64(c.BroadcastBytes))
	l.set("rdd.cache_hit_ratio", ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses)))
	l.set("rdd.peak_shuffle_bytes", float64(o.shufflePeak))
}

// distStats accumulates the protocol metrics of traced dist mines.
type distStats struct {
	mines                                  int
	wait, task, gap                        float64
	leases, reassigns, reads, hits, misses float64
	localGrants, mapGrants, workerRSS      float64
}

func (d *distStats) add(o mineOut) {
	events := o.cluster.log.Events()
	waits, runs, gaps := leaseTimes(events)
	d.mines++
	d.wait += sum(waits)
	d.task += sum(runs)
	d.gap += sum(gaps)
	d.leases += float64(countEvents(events, "lease_grant"))
	d.reassigns += float64(countEvents(events, "task_reassign", "lease_expire", "lease_regrant"))
	reg := o.cluster.reg
	d.reads += counter(reg, "dist_input_reads_total")
	d.hits += counter(reg, "dist_input_cache_hits_total")
	d.misses += counter(reg, "dist_input_cache_misses_total")
	d.localGrants += counter(reg, "dist_local_lease_grants_total")
	for _, ev := range events {
		if ev.Event == "lease_grant" && ev.Phase == dist.PhaseMap {
			d.mapGrants++
		}
	}
	d.workerRSS = max(d.workerRSS, o.cluster.workerRSS)
}

// dist reports the protocol metrics per mine.
func (l *layers) dist(d *distStats) {
	if d.mines == 0 {
		return
	}
	n := float64(d.mines)
	l.set("dist.lease_wait_s", d.wait/n)
	l.set("dist.task_s", d.task/n)
	l.set("dist.job_gap_s", d.gap/n)
	l.set("dist.leases", d.leases/n)
	l.set("dist.reassigns", d.reassigns/n)
	l.set("dist.input_reads", d.reads/n)
	l.set("dist.cache_hit_ratio", ratio(d.hits, d.hits+d.misses))
	l.set("dist.local_lease_ratio", ratio(d.localGrants, d.mapGrants))
	l.set("dist.worker_rss_mb", d.workerRSS)
}

// counter reads a counter the dist master registered.
func counter(reg *obs.Registry, name string) float64 { return reg.Counter(name, "").Value() }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
