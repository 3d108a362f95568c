package main

import "encoding/json"

// runSeconds is how long one run measures in BENCHMARK.json.
const runSeconds = 20

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func manifestMetrics(defs []metricDef, bounded bool) []manifestMetric {
	out := make([]manifestMetric, len(defs))
	for i, d := range defs {
		out[i] = manifestMetric{Name: d.name, Unit: d.unit, Better: "lower"}
		if higherIsBetter[d.name] {
			out[i].Better = "higher"
		}
		if bounded {
			out[i].Bound = &defs[i].bound
		}
	}
	return out
}

// manifest renders BENCHMARK.json from the definitions in this package:
// `go run . --manifest > ../BENCHMARK.json` in this directory rewrites it,
// and a test holds the file to it.
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	wls := make([]wl, len(workloads))
	for i, w := range workloads {
		wls[i] = wl{w.name, w.why}
	}
	raw, err := json.MarshalIndent(struct {
		Command    []string         `json:"command"`
		Paths      []string         `json:"paths"`
		RunSeconds int              `json:"run_seconds"`
		Workloads  []wl             `json:"workloads"`
		EndToEnd   []manifestMetric `json:"end_to_end"`
		PerLayer   []manifestMetric `json:"per_layer"`
	}{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: runSeconds,
		Workloads:  wls,
		EndToEnd:   manifestMetrics(endToEnd, true),
		PerLayer:   manifestMetrics(perLayer, false),
	}, "", "  ")
	return append(raw, '\n'), err
}
