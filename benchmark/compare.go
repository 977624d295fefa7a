package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// benchmarkSpec is BENCHMARK.json, the contract at the repo root: the
// metric lists, directions and bounds live there and nowhere else.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readJSON(path string, v any) error {
	body, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(body, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func readSpec(path string) (benchmarkSpec, error) {
	var spec benchmarkSpec
	return spec, readJSON(path, &spec)
}

// worseBy is the share of a by which b is worse, negative when b is
// better. "higher" metrics worsen downwards.
func worseBy(a, b float64, better string) float64 {
	if better == "higher" {
		return ratio(a-b, a)
	}
	return ratio(b-a, a)
}

// compareResults prints, per workload and end-to-end metric, both
// values, how much worse b is than a, and the bound; it returns how many
// pairs exceed their bound, or miss from either file.
func compareResults(spec benchmarkSpec, a, b resultFile) int {
	over := 0
	fmt.Printf("%-22s %-18s %14s %14s %9s %7s\n", "workload", "metric", "a", "b", "worse by", "bound")
	for _, w := range spec.Workloads {
		ra, rb := a.Workloads[w.Name]["end_to_end"], b.Workloads[w.Name]["end_to_end"]
		for _, e := range spec.EndToEnd {
			va, oka := ra.Metrics.get(e.Name)
			vb, okb := rb.Metrics.get(e.Name)
			if !oka || !okb {
				fmt.Printf("%-22s %-18s missing from a result file\n", w.Name, e.Name)
				over++
				continue
			}
			d := worseBy(va, vb, e.Better)
			verdict := ""
			if d > e.Bound {
				verdict = "  EXCEEDS"
				over++
			}
			fmt.Printf("%-22s %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", w.Name, e.Name, va, vb, 100*d, 100*e.Bound, verdict)
		}
		if ra.Failed+rb.Failed > 0 {
			fmt.Printf("%-22s failed operations: a %d of %d, b %d of %d  EXCEEDS\n", w.Name, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
			over++
		}
	}
	return over
}

// compareFiles is -compare: the exit code is 0 when b is within every
// bound of a. For a repeatability check of one commit, run it both ways.
func compareFiles(pathA, pathB string) int {
	spec, err := readSpec("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	var a, b resultFile
	if err := readJSON(pathA, &a); err != nil {
		fatal(err)
	}
	if err := readJSON(pathB, &b); err != nil {
		fatal(err)
	}
	fmt.Printf("a: %s commit %s seed %d seconds %g\nb: %s commit %s seed %d seconds %g\n",
		pathA, a.Env.Commit, a.Seed, a.Seconds, pathB, b.Env.Commit, b.Seed, b.Seconds)
	if over := compareResults(spec, a, b); over > 0 {
		fmt.Printf("%d comparisons exceed their bound\n", over)
		return 1
	}
	fmt.Println("every end-to-end metric of b is within its bound of a")
	return 0
}
