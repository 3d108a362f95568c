// Command perfbench is the repository's wall-clock benchmark. It mines one
// workload repeatedly for a fixed time, checks every mined result against
// the sequential Eclat oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) by name with their units. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 7, "failed": 0, "metrics": {"mine_s": {"value": 1.37, "unit": "s"}, ...}}
//
// Build and run it from the repository root with
//
//	bash perfbench/run.sh --workload t10-yafim --seed 2014 --seconds 10 --trace 0
//
// The benchmark adds no code to the program: it times its own calls into
// the modules' public functions, takes a CPU profile and attributes it by
// module, and reads the counters the program already exposes.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"yafim/internal/apriori"
	"yafim/internal/dist"
	"yafim/internal/eclat"
	"yafim/internal/obs"
)

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 11

// mineTimeout bounds one mine; a mine that overruns it fails.
const mineTimeout = 60 * time.Second

// outDir, relative to the repository root the benchmark runs from, holds
// the span files of traced runs and each run's temporary inputs and logs.
var outDir = filepath.Join(".bench_build", "out")

// yafimBin is the yafim binary run.sh builds next to this one; the dist
// workload's workers run `yafim -dist worker`.
func yafimBin(self string) string { return filepath.Join(filepath.Dir(self), "yafim") }

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload: "+workloadNames())
	seed := fl.Int64("seed", 2014, "seed of the generated input")
	seconds := fl.Float64("seconds", 10, "seconds of mining to measure")
	traceFlag := fl.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	workerOf := fl.String("dist-worker", "", "run as a dist worker of the master at this URL, under a CPU profile (the traced run's workers)")
	workerProf := fl.String("cpuprofile", "", "with --dist-worker, the file the worker's CPU profile is written to")
	printManifest := fl.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if *printManifest {
		raw, err := manifest()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		stdout.Write(raw) //nolint:errcheck // nothing to do about a closed stdout
		return 0
	}
	if *workerOf != "" {
		return runWorker(*workerOf, *workerProf, stderr)
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	self, err := os.Executable()
	if err == nil {
		err = os.MkdirAll(outDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	tmp, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	r := &runner{
		bench: bench{
			w: w, seed: *seed, tmpDir: tmp, self: self,
			worker: func(url string) []string {
				return []string{yafimBin(self), "-dist", "worker", "-dist-master", url}
			},
			tr: newTracer(fmt.Sprintf("%s-seed%d-%d", w.name, *seed, time.Now().UnixNano())),
		},
		seconds: *seconds, stdout: stdout, stderr: stderr,
	}
	var res *result
	if *traceFlag == 1 {
		res, err = r.traced(ctx)
		if err == nil {
			path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, *seed))
			if err = r.tr.write(path); err == nil {
				fmt.Fprintf(stdout, "spans: %s\n", path)
			}
		}
	} else {
		res, err = r.timed(ctx)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// runWorker serves as a dist worker, exactly as `yafim -dist worker` does,
// until SIGINT or SIGTERM, with a CPU profile of the whole process life.
func runWorker(masterURL, profPath string, stderr io.Writer) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	f, err := os.Create(profPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: worker: %v\n", err)
		return 1
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		fmt.Fprintf(stderr, "perfbench: worker: %v\n", err)
		return 1
	}
	err = dist.RunWorker(ctx, dist.WorkerOptions{MasterURL: masterURL})
	pprof.StopCPUProfile()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, context.Canceled) {
		fmt.Fprintf(stderr, "perfbench: worker: %v\n", err)
		return 1
	}
	return 0
}

// runner drives one benchmark run: set-up, the oracle, then mines.
type runner struct {
	bench
	seconds        float64
	stdout, stderr io.Writer
	oracle         *apriori.Result
	attempted      int
	failed         int
	firstVirt      time.Duration
	setupS         []float64
}

// prepare sets up setupReps times and computes the oracle, outside set-up
// time, then mines once untimed so lazy set-up and caches settle.
func (r *runner) prepare(ctx context.Context) error {
	for i := 0; i < setupReps; i++ {
		s, err := r.setUp(ctx)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.setupS = append(r.setupS, s)
	}
	sp := r.tr.begin("oracle", 0)
	oracle, err := eclat.Mine(r.db, r.w.support)
	r.tr.end(sp)
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	r.oracle = oracle
	r.mineChecked(ctx, nil, nil)
	runtime.GC()
	debug.FreeOSMemory()
	return ctx.Err()
}

// mineChecked runs one mine and checks it: an error, a result that differs
// from the oracle, virt_s drifting from the run's first mine, or a lost
// worker fails it. For dist, inspect sees the cluster after it stopped.
func (r *runner) mineChecked(ctx context.Context, rec *obs.Recorder, inspect func(mineOut)) (mineOut, bool) {
	r.attempted++
	mctx, cancel := context.WithTimeout(ctx, mineTimeout)
	defer cancel()
	out, err := r.mine(mctx, rec)
	if out.cluster != nil {
		out.cluster.stop()
		if inspect != nil && err == nil {
			inspect(out)
		}
		out.cluster = nil
	}
	switch {
	case err != nil:
	case !out.trace.Result.Equal(r.oracle):
		err = fmt.Errorf("result (%d itemsets) differs from the eclat oracle (%d)",
			out.trace.Result.NumFrequent(), r.oracle.NumFrequent())
	case r.w.engine != engineDist && r.firstVirt == 0:
		r.firstVirt = out.virt
	case r.w.engine != engineDist && out.virt != r.firstVirt:
		err = fmt.Errorf("virt_s drifted to %v from the first mine's %v", out.virt, r.firstVirt)
	}
	if err != nil {
		r.failed++
		fmt.Fprintf(r.stderr, "perfbench: mine %d failed: %v\n", r.attempted, err)
		return out, false
	}
	return out, true
}

// window mines for the given seconds (at least once) and returns the wall
// seconds and allocated MB of every mine that passed its checks, plus the
// last passing mine's output.
func (r *runner) window(ctx context.Context, seconds float64, rec func() *obs.Recorder,
	inspect func(mineOut)) (walls, allocs []float64, last mineOut) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if ctx.Err() != nil {
			break
		}
		var rc *obs.Recorder
		if rec != nil {
			rc = rec()
		}
		if out, ok := r.mineChecked(ctx, rc, inspect); ok {
			walls = append(walls, out.wall)
			allocs = append(allocs, out.allocMB)
			last = out
		}
	}
	return walls, allocs, last
}

// center is the statistic a run reports over its mines: the median, or on
// dist the mean, because a dist mine's wall time falls on the lattice of
// the workers' lease poll (one heartbeat, see distTuning) and a median of
// mines jumps a whole step between runs.
func (r *runner) center(xs []float64) float64 {
	if r.w.engine == engineDist {
		return mean(xs)
	}
	return median(xs)
}

func (r *runner) result(m map[string]metric) *result {
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: m}
}

// timed is the untraced run: the end-to-end metrics.
func (r *runner) timed(ctx context.Context) (*result, error) {
	if err := r.prepare(ctx); err != nil {
		return nil, err
	}
	rss := sampleRSS(5 * time.Millisecond)
	workerRSS := 0.0
	walls, allocs, _ := r.window(ctx, r.seconds, nil, func(o mineOut) {
		workerRSS = max(workerRSS, o.cluster.workerRSS)
	})
	peakRSS := max(rss(), workerRSS)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(walls) == 0 {
		return r.result(map[string]metric{}), nil
	}
	values := map[string]float64{
		"mine_s":      r.center(walls),
		"alloc_mb":    r.center(allocs),
		"peak_rss_mb": peakRSS,
		"setup_s":     median(r.setupS),
	}
	m := map[string]metric{}
	for _, d := range endToEnd {
		m[d.name] = metric{values[d.name], d.unit}
	}
	r.report(walls, m)
	return r.result(m), nil
}

// report prints the end-to-end metrics for a reader, with sample counts,
// quartiles, the timing tail, virt_s and error_rate.
func (r *runner) report(walls []float64, m map[string]metric) {
	w := r.stdout
	fmt.Fprintf(w, "workload %s: seed %d, %d transactions, support %g%%, engine %s, %d tasks\n",
		r.w.name, r.seed, r.db.Len(), r.w.support*100, r.w.engine, r.w.tasks())
	q1, q3 := quartiles(walls)
	stat := "median"
	if r.w.engine == engineDist {
		stat = "mean"
	}
	fmt.Fprintf(w, "  %-12s %12.6f s    %s of %d mines, quartiles %.6f .. %.6f\n",
		"mine_s", m["mine_s"].Value, stat, len(walls), q1, q3)
	if len(walls) <= 24 {
		fmt.Fprintf(w, "  %-12s %v\n", "mines", fmtSeconds(walls))
	}
	if p, v, ok := tail(walls, 10); ok && p > 50 {
		fmt.Fprintf(w, "  %-12s %12.6f s    p%g, %d samples\n", "mine_s_tail", v, p, len(walls))
	} else {
		fmt.Fprintf(w, "  %-12s %12s      no percentile above the median has 10 samples beyond it (%d samples)\n",
			"mine_s_tail", "-", len(walls))
	}
	if r.w.engine != engineDist {
		fmt.Fprintf(w, "  %-12s %12.6f s    identical on every mine\n", "virt_s", r.firstVirt.Seconds())
	}
	fmt.Fprintf(w, "  %-12s %12.3f MB   %s per mine, this process\n", "alloc_mb", m["alloc_mb"].Value, stat)
	fmt.Fprintf(w, "  %-12s %12.3f MB   peak over the mines (largest process)\n", "peak_rss_mb", m["peak_rss_mb"].Value)
	fmt.Fprintf(w, "  %-12s %12.6f s    median of %d set-ups %v\n", "setup_s", m["setup_s"].Value, len(r.setupS), fmtSeconds(r.setupS))
	fmt.Fprintf(w, "  %-12s %12.6f      %d failed of %d mines\n", "error_rate",
		ratio(float64(r.failed), float64(r.attempted)), r.failed, r.attempted)
}

// fmtSeconds lists durations with millisecond precision.
func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// heapAllocBytes is the process's cumulative heap allocation.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// gcCPUSeconds is the GC's cumulative CPU time as the runtime estimates it.
func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64()
}

// processCPUSeconds is this process's user plus system CPU time.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// sampleRSS samples this process's resident set every interval until the
// returned function is called, which returns the peak in MB.
func sampleRSS(every time.Duration) func() float64 {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	peak := 0.0
	wg.Add(1)
	go func() {
		defer wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			if mb, err := procStatusMB(os.Getpid(), "VmRSS"); err == nil && mb > peak {
				peak = mb
			}
			select {
			case <-stop:
				return
			case <-t.C:
			}
		}
	}()
	return func() float64 {
		close(stop)
		wg.Wait()
		return peak
	}
}

// traced is the traced run: half the time untimed-instrumented mines for
// the overhead base, half the time with a CPU profile and a recorder, then
// the kernel spans. It returns the per-layer metrics.
func (r *runner) traced(ctx context.Context) (*result, error) {
	if err := r.prepare(ctx); err != nil {
		return nil, err
	}
	base, _, _ := r.window(ctx, r.seconds/2, nil, nil)

	// Traced dist mines run their workers from this binary's worker mode,
	// each under its own CPU profile, merged below with this process's.
	var workerProfiles []string
	if r.w.engine == engineDist {
		r.worker = func(url string) []string {
			p := filepath.Join(r.tmpDir, fmt.Sprintf("worker-%d.pprof", len(workerProfiles)))
			workerProfiles = append(workerProfiles, p)
			return []string{r.self, "--dist-worker", url, "--cpuprofile", p}
		}
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var ds distStats
	gc0, cpu0, t0 := gcCPUSeconds(), processCPUSeconds(), time.Now()
	root := r.tr.begin("traced_mines", 0)
	walls, _, last := r.window(ctx, r.seconds/2, obs.New, ds.add)
	r.tr.end(root)
	wallS, cpuS, gcS := time.Since(t0).Seconds(), processCPUSeconds()-cpu0, gcCPUSeconds()-gc0
	pprof.StopCPUProfile()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if len(walls) == 0 || len(base) == 0 {
		return r.result(map[string]metric{}), nil
	}
	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, p := range workerProfiles {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, fmt.Errorf("worker profile: %w", err)
		}
		ws, err := parseCPUProfile(raw)
		if err != nil {
			return nil, fmt.Errorf("worker profile %s: %w", p, err)
		}
		samples = append(samples, ws...)
	}
	buckets, total := selfTimes(samples)

	l := newLayers(float64(len(walls)))
	if err := l.cpu(buckets, total); err != nil {
		return nil, err
	}
	l.set("runtime.gc_cpu_s", gcS/float64(len(walls)))
	l.set("runtime.cpu_per_wall", ratio(cpuS, wallS))
	l.set("obs.trace_overhead", r.center(walls)/r.center(base))
	for _, n := range []string{"datagen.gen_s", "dfs.stage_s", "dataset.save_s", "dist.register_s"} {
		l.set(n, median(r.tr.durations(n)))
	}
	l.mined(last, r.w.engine)
	l.dist(&ds)
	kroot := r.tr.begin("kernels", 0)
	switch r.w.engine {
	case engineEclat:
		err = andCountKernel(r.tr, kroot, r.db, r.oracle)
	default:
		var ops int64
		ops, err = aprioriKernels(r.tr, kroot, r.db, r.oracle)
		l.set("hashtree.ops", float64(ops))
	}
	r.tr.end(kroot)
	if err != nil {
		return nil, fmt.Errorf("kernels: %w", err)
	}
	for _, n := range []string{"apriori.gen_s", "hashtree.build_s", "hashtree.count_s", "itemset.andcount_s"} {
		l.set(n, r.tr.total(n))
	}
	r.printLayers(l, buckets, total, len(walls), len(base))
	return r.result(l.m), nil
}

// printLayers prints the per-layer table and the CPU profile by bucket.
func (r *runner) printLayers(l *layers, buckets map[string]float64, total float64, traced, base int) {
	w := r.stdout
	fmt.Fprintf(w, "workload %s: seed %d, traced run: %d traced mines, %d untraced; per mine unless noted\n",
		r.w.name, r.seed, traced, base)
	for _, d := range perLayer {
		fmt.Fprintf(w, "  %-24s %16.6f %s\n", d.name, l.m[d.name].Value, d.unit)
	}
	fmt.Fprintf(w, "CPU profile by module (%.3f s sampled over %d mines, workers included):\n", total, traced)
	names := make([]string, 0, len(buckets))
	for n := range buckets {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return buckets[names[i]] > buckets[names[j]] })
	for _, n := range names {
		fmt.Fprintf(w, "  %-14s %9.3f s  %5.1f%%\n", n, buckets[n], 100*ratio(buckets[n], total))
	}
}
