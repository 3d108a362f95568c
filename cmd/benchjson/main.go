// Command benchjson converts `go test -bench -benchmem` output into a
// stable JSON document, and compares two such documents as a regression
// gate.
//
// Writer mode (default) reads benchmark output on stdin and prints JSON:
//
//	go test -run '^$' -bench Pass2 -benchmem . | go run ./cmd/benchjson > BENCH.json
//
// Check mode compares a committed baseline against a fresh run and exits
// nonzero when a gated metric regressed beyond the tolerance:
//
//	go run ./cmd/benchjson -check BENCH_12.json bench-current.json
//
// Only machine-independent metrics gate: B/op (real allocation rate of the
// counting kernels) and every custom metric containing "virt-sec" (the
// simulated cluster time, which is deterministic) or "resident-bytes" (the
// shuffle lifecycle manager's deterministic peak/final spill residency).
// ns/op depends on the CI host and is recorded but never gated; allocs/op
// is recorded for the trajectory and gated alongside B/op.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// Schema identifies the document layout for future readers of the
// committed BENCH_*.json trajectory points.
const Schema = "yafim-bench/v1"

// Benchmark is one parsed benchmark line. Metrics holds every
// "value unit" pair after the iteration count: ns/op, B/op, allocs/op,
// and any b.ReportMetric customs.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Doc is the emitted JSON document.
type Doc struct {
	Schema     string      `json:"schema"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	check := flag.Bool("check", false,
		"compare two JSON files (baseline, current) instead of parsing stdin")
	tolerance := flag.Float64("tolerance", 0.20,
		"allowed fractional increase of a gated metric before failing")
	flag.Parse()

	if *check {
		if flag.NArg() != 2 {
			fatalf("usage: benchjson -check [-tolerance 0.20] baseline.json current.json")
		}
		base, err := load(flag.Arg(0))
		if err != nil {
			fatalf("baseline: %v", err)
		}
		cur, err := load(flag.Arg(1))
		if err != nil {
			fatalf("current: %v", err)
		}
		if failures := compare(base, cur, *tolerance); len(failures) > 0 {
			for _, f := range failures {
				fmt.Fprintln(os.Stderr, "REGRESSION:", f)
			}
			os.Exit(1)
		}
		fmt.Printf("benchjson: %d benchmarks within %.0f%% of baseline %s\n",
			len(base.Benchmarks), *tolerance*100, flag.Arg(0))
		return
	}

	doc, err := parse(os.Stdin)
	if err != nil {
		fatalf("%v", err)
	}
	if len(doc.Benchmarks) == 0 {
		fatalf("no benchmark lines found on stdin")
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		fatalf("%v", err)
	}
}

// parse reads `go test -bench` text output. Benchmark lines look like:
//
//	BenchmarkPass2KernelHashTree-16    12   9512345 ns/op   1.25 virt-sec   512 B/op   3 allocs/op
//
// The trailing -N is the GOMAXPROCS suffix and is stripped so baselines
// transfer between machines with different core counts.
func parse(r *os.File) (*Doc, error) {
	doc := &Doc{
		Schema:    Schema,
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// Name, iterations, then pairs of value/unit.
		if len(fields) < 4 || len(fields)%2 != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Name:       stripProcs(fields[0]),
			Iterations: iters,
			Metrics:    map[string]float64{},
		}
		ok := true
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				ok = false
				break
			}
			b.Metrics[fields[i+1]] = v
		}
		if !ok {
			continue
		}
		doc.Benchmarks = append(doc.Benchmarks, b)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sort.Slice(doc.Benchmarks, func(i, j int) bool {
		return doc.Benchmarks[i].Name < doc.Benchmarks[j].Name
	})
	return doc, nil
}

// stripProcs removes the trailing -GOMAXPROCS suffix of a benchmark name.
func stripProcs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}

func load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Doc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &doc, nil
}

// gated reports whether a metric participates in the regression gate.
// Wall-clock rates (ns/op, MB/s) vary with the host and are excluded.
func gated(unit string) bool {
	switch {
	case unit == "B/op", unit == "allocs/op":
		return true
	case strings.Contains(unit, "virt-sec"):
		return true
	case strings.Contains(unit, "resident-bytes"):
		// Deterministic virtual quantity like virt-sec: peak shuffle spill
		// held in executor memory must not creep back up.
		return true
	}
	return false
}

// compare returns one message per gated regression. Every baseline
// benchmark must still exist in the current run — a vanished benchmark is
// a silent gate bypass, so it fails too.
func compare(base, cur *Doc, tolerance float64) []string {
	curByName := map[string]Benchmark{}
	for _, b := range cur.Benchmarks {
		curByName[b.Name] = b
	}
	var failures []string
	for _, b := range base.Benchmarks {
		c, ok := curByName[b.Name]
		if !ok {
			failures = append(failures,
				fmt.Sprintf("%s: present in baseline but missing from current run", b.Name))
			continue
		}
		units := make([]string, 0, len(b.Metrics))
		for unit := range b.Metrics {
			units = append(units, unit)
		}
		sort.Strings(units)
		for _, unit := range units {
			if !gated(unit) {
				continue
			}
			want := b.Metrics[unit]
			got, ok := c.Metrics[unit]
			if !ok {
				failures = append(failures,
					fmt.Sprintf("%s: metric %s missing from current run", b.Name, unit))
				continue
			}
			// One absolute unit of slack on top of the fractional tolerance:
			// tiny integer metrics (an allocs/op of 4 whose pool warm-up
			// sometimes lands on 5) would otherwise flake the gate, while a
			// single unit is far below noise for every metric large enough
			// to regress meaningfully. It also covers the zero baseline,
			// which cannot scale by a tolerance.
			limit := want*(1+tolerance) + 1
			if got > limit {
				failures = append(failures, fmt.Sprintf(
					"%s: %s grew %.4g -> %.4g (limit %.4g at %.0f%% tolerance)",
					b.Name, unit, want, got, limit, tolerance*100))
			}
		}
	}
	return failures
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
