package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// selfCheck runs each selected workload k times, every run a fresh process
// with its own seed, and holds each end-to-end metric's relative spread
// (interquartile distance over median) against its bound from
// BENCHMARK.json. It fails if any spread exceeds its bound — the
// criterion the driver accepts the benchmark by. setup_s is reported but,
// as in the driver, not held to its bound.
func selfCheck(selection string, k int, seed int64, seconds float64, specPath, scratch string) error {
	if k < 2 {
		return fmt.Errorf("-repeat needs at least 2 runs")
	}
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return fmt.Errorf("self-check: %w", err)
	}
	var spec specFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("self-check: %s: %w", specPath, err)
	}
	var names []string
	if selection == "" || selection == "all" {
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	} else {
		names = strings.Split(selection, ",")
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	exceeded := 0
	for _, name := range names {
		values := map[string][]float64{}
		for r := 0; r < k; r++ {
			cmd := exec.Command(exe, "-workload", name, "-seed", fmt.Sprint(seed+int64(r)),
				"-seconds", fmt.Sprint(seconds), "-trace", "0", "-scratch", scratch)
			cmd.Stderr = os.Stderr
			out, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("self-check: %s run %d: %w", name, r, err)
			}
			lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return fmt.Errorf("self-check: %s run %d: last line: %w", name, r, err)
			}
			if !res.Correct {
				return fmt.Errorf("self-check: %s run %d: %d of %d operations failed", name, r, res.Failed, res.Attempted)
			}
			for m, v := range res.Metrics {
				values[m] = append(values[m], v.Value)
			}
		}
		fmt.Printf("%s (%d runs, seeds %d…%d)\n", name, k, seed, seed+int64(k)-1)
		for _, m := range spec.EndToEnd {
			q1, q2, q3, err := quartiles(values[m.Name])
			if err != nil {
				return fmt.Errorf("self-check: %s %s: %w", name, m.Name, err)
			}
			spread, err := relSpread(values[m.Name])
			if err != nil {
				return fmt.Errorf("self-check: %s %s: %w", name, m.Name, err)
			}
			verdict := "ok"
			switch {
			case m.Name == "setup_s":
				verdict = "not held"
			case spread > m.Bound:
				verdict = "EXCEEDS BOUND"
				exceeded++
			case spread > m.Bound/3:
				verdict = "ok (above a third of the bound)"
			}
			fmt.Printf("  %-14s median %10.5g  q1 %10.5g  q3 %10.5g  spread %6.2f%%  bound %5.1f%%  %s\n",
				m.Name, q2, q1, q3, 100*spread, 100*m.Bound, verdict)
		}
	}
	if exceeded > 0 {
		return fmt.Errorf("self-check: %d metric(s) spread beyond their bound", exceeded)
	}
	return nil
}
