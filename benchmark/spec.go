package main

import (
	"encoding/json"
	"io"
)

// The types below are BENCHMARK.json, key for key. The file is generated
// from the tables in this program (-print-spec) and the smoke test holds the
// two together.
type specFile struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specBounded  `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

type specBounded struct {
	specMetric
	Bound float64 `json:"bound"`
}

func currentSpec(seconds float64) specFile {
	spec := specFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: int(seconds),
	}
	for _, w := range workloads {
		spec.Workloads = append(spec.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range endToEnd {
		spec.EndToEnd = append(spec.EndToEnd, specBounded{specMetric{m.name, m.unit, m.better}, m.bound})
	}
	for _, m := range perLayer {
		spec.PerLayer = append(spec.PerLayer, specMetric{m.name, m.unit, m.better})
	}
	return spec
}

func printSpec(w io.Writer, seconds float64) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(currentSpec(seconds))
}
