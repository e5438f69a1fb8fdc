package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// BENCHMARK.json must say exactly what the tables in this program say, and
// stay inside the limits of the benchmark contract.
func TestSpecMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var got specFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&got); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if want := currentSpec(float64(got.RunSeconds)); !reflect.DeepEqual(got, want) {
		t.Errorf("BENCHMARK.json differs from the program's tables; regenerate it with\n\tbash benchmark/run.sh -print-spec > BENCHMARK.json")
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(raw))
	}
	if got.RunSeconds < 1 || got.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1…60", got.RunSeconds)
	}
	if n := len(got.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2…8", n)
	}
	if n := len(got.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1…128", n)
	}
	seen := map[string]bool{}
	name := func(kind, s string) {
		if !nameRE.MatchString(s) {
			t.Errorf("%s name %q does not match %v", kind, s, nameRE)
		}
		if seen[s] {
			t.Errorf("name %q is used twice", s)
		}
		seen[s] = true
	}
	for _, w := range got.Workloads {
		name("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		if findWorkload(w.Name) == nil {
			t.Errorf("workload %s is not in the program's table", w.Name)
		}
	}
	hasSetup := false
	for _, m := range got.EndToEnd {
		name("end-to-end", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
			for _, o := range got.EndToEnd {
				if o.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound; %s has %v", o.Name, o.Bound)
				}
			}
		}
	}
	if !hasSetup {
		t.Error("end_to_end needs setup_s in s, lower is better")
	}
	for _, m := range got.PerLayer {
		name("per-layer", m.Name)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better %q", m.Name, m.Better)
		}
	}
}

func metricNames(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

func checkResult(t *testing.T, what string, res *result, defs []metricDef) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("%s: correct=%v attempted=%d failed=%d", what, res.Correct, res.Attempted, res.Failed)
	}
	want := metricNames(defs)
	for name, v := range res.Metrics {
		if unit, ok := want[name]; !ok || unit != v.Unit {
			t.Errorf("%s: printed %s in %q, which BENCHMARK.json does not list", what, name, v.Unit)
		}
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("%s: %s is listed but was not printed", what, name)
		}
	}
}

// Every workload, at a handful of operations: the untraced run prints
// exactly the end-to-end metrics, the traced run exactly the per-layer
// metrics, and every operation verifies. With -short only the cheapest
// workload runs.
func TestSmokeEveryWorkload(t *testing.T) {
	scratch := t.TempDir()
	probes, err := runProbes(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, def := range workloads {
		if testing.Short() && def.name != "serve_cold" {
			continue
		}
		t.Run(def.name, func(t *testing.T) {
			count := 20
			if def.name == "serve_mixed" {
				count = 200
			}
			small := def
			if small.tail, err = tailPercentile(count); err != nil {
				t.Fatal(err)
			}
			small.limitMs = 1e6 // a loaded test machine must not fail the limit
			cfg := runConfig{seed: 1, count: count, scratch: scratch}
			res, err := runUntraced(&small, cfg)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "untraced", res, endToEnd)
			for name, v := range res.Metrics {
				if !(v.Value > 0) {
					t.Errorf("end-to-end %s = %v: must never be 0", name, v.Value)
				}
			}
			out := filepath.Join(scratch, def.name+".json")
			res, err = runTraced(&small, cfg, probes, out)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, "traced", res, perLayer)
			raw, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(raw, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace %s: %d events (%v)", out, len(tr.TraceEvents), err)
			}
		})
	}
}
