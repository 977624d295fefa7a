// Command benchmark is the repo's one end-to-end benchmark: it builds
// cmd/vgend, starts a fresh daemon process per workload, loads it over
// loopback HTTP from this one process, checks every output and prints
// every metric by name and unit. README.md in this directory is the
// glossary; BENCHMARK.json at the repo root is the contract.
//
//	go run ./benchmark                                  all workloads, both passes
//	go run ./benchmark --workload NAME --seed N --seconds S --trace 0|1
//	go run ./benchmark -smoke                           1/10 scale, checks on, for CI
//	go run ./benchmark -record                          rewrite benchmark/expected/*.sha256
//	go run ./benchmark -out a.json ; go run ./benchmark -compare a.json b.json
//
// With --trace 0 a run measures the end-to-end metrics against a daemon
// started with -trace=false; with --trace 1 it measures the per-layer
// metrics from a shorter slice of the same workload: /metrics deltas,
// a traced daemon's phase sums, and the in-process probes of
// ./benchmark/layers. The last line of standard output is one JSON
// object {"correct","attempted","failed","metrics"}.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the run length the
// workloads were sized and the digests recorded at.
const defaultSeconds = 20

// environment is recorded in every output file.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func readEnvironment() environment {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
	}
}

// live tracks running children so a signal cannot orphan a vgend.
var live struct {
	sync.Mutex
	daemons map[*daemon]bool
}

func trackDaemon(d *daemon, on bool) {
	live.Lock()
	defer live.Unlock()
	if live.daemons == nil {
		live.daemons = map[*daemon]bool{}
	}
	if on {
		live.daemons[d] = true
	} else {
		delete(live.daemons, d)
	}
}

func stopAllDaemons() {
	live.Lock()
	all := make([]*daemon, 0, len(live.daemons))
	for d := range live.daemons {
		all = append(all, d)
	}
	live.Unlock()
	for _, d := range all {
		d.stop()
	}
}

// contractLine is the JSON object the last line of stdout carries.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (m metrics) contract() map[string]contractValue {
	out := make(map[string]contractValue, len(m))
	for _, x := range m {
		out[x.Name] = contractValue{Value: x.Value, Unit: x.Unit}
	}
	return out
}

// passResult is one workload's numbers from one pass, as printed on the
// contract line and stored by -out.
type passResult struct {
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       environment                      `json:"env"`
	Seed      int64                            `json:"seed"`
	Seconds   float64                          `json:"seconds"`
	Workloads map[string]map[string]passResult `json:"workloads"` // workload → "end_to_end" | "per_layer"
}

func main() {
	var (
		workloadFlag = flag.String("workload", "", "workload name, or a comma list (default: all)")
		seed         = flag.Int64("seed", 1, "drives the order requests are sent in, the arrival schedule and where the fleet workload's repeats fall")
		seconds      = flag.Float64("seconds", defaultSeconds, "run length the fixed work is sized for")
		traceFlag    = flag.String("trace", "", "0: end-to-end pass; 1: per-layer pass (default: both)")
		record       = flag.Bool("record", false, "rewrite benchmark/expected/<workload>.sha256 from this run")
		smoke        = flag.Bool("smoke", false, "every workload at 1/10 scale with correctness checks on")
		out          = flag.String("out", "", "also write the results as JSON to this file")
		compare      = flag.Bool("compare", false, "compare two -out files: benchmark -compare a.json b.json")
	)
	flag.Parse()
	// File arguments are relative to where the command was typed; every
	// other path is relative to the repo root.
	files := append([]string{*out}, flag.Args()...)
	for i, f := range files {
		if f != "" {
			abs, err := filepath.Abs(f)
			if err != nil {
				fatal(err)
			}
			files[i] = abs
		}
	}
	*out = files[0]
	if err := enterRepoRoot(); err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two result files"))
		}
		os.Exit(compareFiles(files[1], files[2]))
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}

	names := workloadNames
	if *workloadFlag != "" {
		names = strings.Split(*workloadFlag, ",")
	}
	passes := []string{"0", "1"}
	switch *traceFlag {
	case "":
	case "0", "1":
		passes = []string{*traceFlag}
	default:
		fatal(fmt.Errorf("-trace must be 0 or 1, got %q", *traceFlag))
	}
	if *smoke {
		*seconds = defaultSeconds / 10.0
		passes = []string{"0"}
	}
	if *record {
		passes = []string{"0"}
	}

	// A signal must not orphan a vgend: stop the children, then leave.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cancel()
		stopAllDaemons()
		fmt.Fprintln(os.Stderr, "benchmark: interrupted")
		os.Exit(130)
	}()

	env := readEnvironment()
	fmt.Printf("# benchmark: nproc=%d GOMAXPROCS=%d %s commit=%s seed=%d seconds=%g connections=%d\n",
		env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit, *seed, *seconds, conns)

	bin, buildTime, err := goBuild(ctx, "./cmd/vgend", "vgend")
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%-44s %14.4f s  (go build ./cmd/vgend, not part of setup_s)\n", "client.build_s", buildTime.Seconds())

	file := resultFile{Env: env, Seed: *seed, Seconds: *seconds, Workloads: map[string]map[string]passResult{}}
	run := runner{ctx: ctx, bin: bin, seed: *seed, seconds: *seconds, record: *record, smoke: *smoke}
	allCorrect := true
	for _, name := range names {
		file.Workloads[name] = map[string]passResult{}
		for _, pass := range passes {
			var res passResult
			var section string
			if pass == "0" {
				section = "end_to_end"
				res, err = run.endToEndPass(name)
			} else {
				section = "per_layer"
				res, err = run.perLayerPass(name)
			}
			if err != nil {
				fatal(fmt.Errorf("%s: %w", name, err)) // the pass stopped its daemons on the way out
			}
			file.Workloads[name][section] = res
			correct := res.Failed == 0
			allCorrect = allCorrect && correct
			line, err := json.Marshal(contractLine{
				Correct: correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics.contract(),
			})
			if err != nil {
				fatal(err)
			}
			fmt.Printf("\n%s\n", line)
		}
	}
	if *out != "" {
		body, err := json.MarshalIndent(file, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*out, append(body, '\n'), 0o644); err != nil {
			fatal(err)
		}
	}
	// A contract run (--trace given) reports wrong outputs on its JSON
	// line and exits 0; every other mode fails the command.
	if !allCorrect && *traceFlag == "" {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
	os.Exit(1)
}
