package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os/exec"
	"time"
)

// probeNames lists the in-process probes of ./benchmark/layers. Each
// reports .ns_op, .allocs_op and .b_op.
var probeNames = []string{
	"tokenizer.encode",
	"model.newgen",
	"model.trie.hit",
	"model.trie.fork",
	"model.trie.insert_evict",
	"model.forward",
	"core.decode.ntp",
	"core.decode.ours",
	"core.decode.lookup-tree",
	"core.decode.grammar-tree",
	"spec.grammar.check",
	"trace.span",
	"serve.engine.generate",
	"serve.handler.generate",
	"cluster.fleet.generate",
}

const probeTimeout = 90 * time.Second

type probeResult struct {
	Name     string  `json:"name"`
	NsOp     float64 `json:"ns_op"`
	AllocsOp float64 `json:"allocs_op"`
	BOp      float64 `json:"b_op"`
	Ops      int     `json:"ops"`
}

// runProbes builds and runs the probe program and returns three metrics
// per probe. The probes reach into internal packages a refactor may
// reshape; when they no longer build or run, that is reported and every
// probe metric reads 0 — the end-to-end numbers never depend on them.
func runProbes(ctx context.Context) metrics {
	got, err := execProbes(ctx)
	if err != nil {
		fmt.Printf("\nPROBES FAILED (per-layer probe metrics read 0): %v\n", err)
	}
	return probeMetrics(got)
}

func probeMetrics(got map[string]probeResult) metrics {
	var m metrics
	for _, name := range probeNames {
		r := got[name]
		base := fmt.Sprintf("%d operations, one thread, in process", r.Ops)
		m.lower(name+".ns_op", "ns", r.NsOp, base)
		m.lower(name+".allocs_op", "count", r.AllocsOp)
		m.lower(name+".b_op", "B", r.BOp)
	}
	return m
}

func execProbes(ctx context.Context) (map[string]probeResult, error) {
	bin, _, err := goBuild(ctx, "./benchmark/layers", "layers")
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("run probes: %w: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	var out struct {
		Probes []probeResult `json:"probes"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &out); err != nil {
		return nil, fmt.Errorf("parse probe output: %w", err)
	}
	got := map[string]probeResult{}
	for _, r := range out.Probes {
		got[r.Name] = r
	}
	for _, name := range probeNames {
		if _, ok := got[name]; !ok {
			return got, fmt.Errorf("probe %s missing from the output", name)
		}
	}
	return got, nil
}
