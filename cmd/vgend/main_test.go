package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the daemon: re-executed
// with vgendTestArgs set, it runs main() on those arguments, so flag
// handling is tested through the same code path an operator hits.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv(vgendTestArgs); ok {
		os.Args = append(os.Args[:1], strings.Fields(args)...)
		main()
		return
	}
	os.Exit(m.Run())
}

const vgendTestArgs = "VGEND_TEST_ARGS"

// TestRetiredFlagsRefused pins the flags that were deleted: the
// -prefix-cache mode switch (the trie is the only session cache), the
// -no-dedup escape hatch, the -scheduler flag that went with the worker
// pool, the -router flag that went with the comparison routers, the
// daemon-wide -tree-budget (a request carries its own "tree_budget"),
// the -hedge-after flag that went with hedged dispatch, and the
// admission-chain and autoscaler flags that went with the fixed
// replica set, the scheduler's -preempt-quantum and the trie's
// -prefix-cache-bytes (a decode keeps its slot until it finishes; the
// trie budget is a constant), -steal (work stealing inside a model
// group is always on), and -model/-scheme (-models names both). Each
// exits 2 as an undefined flag before training starts. So does a
// -models spec that still carries the retired third component, a
// per-replica default strategy (a replica decodes a request naming no
// strategy with its model's own method).
func TestRetiredFlagsRefused(t *testing.T) {
	for _, args := range []string{
		"-prefix-cache trie",
		"-no-dedup",
		"-scheduler x",
		"-router round-robin",
		"-tree-budget 5",
		"-hedge-after 50ms",
		"-shed-policy priority",
		"-budget-tps 100",
		"-budget-burst 100",
		"-autoscale",
		"-min-replicas 2",
		"-max-replicas 4",
		"-preempt-quantum 4",
		"-prefix-cache-bytes 1024",
		"-steal",
		"-model x",
		"-scheme y",
		"-models codellama:ours:prompt-lookup",
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), vgendTestArgs+"="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("vgend %s: err=%v, want exit status 2\n%s", args, err, out)
			continue
		}
		want := "flag provided but not defined: " + strings.Fields(args)[0]
		if strings.HasPrefix(args, "-models") {
			want = "bad replica spec"
		}
		if !strings.Contains(string(out), want) {
			t.Errorf("vgend %s: output lacks %q:\n%s", args, want, out)
		}
		if strings.Contains(string(out), "building corpus") {
			t.Errorf("vgend %s: started training before rejecting the flag:\n%s", args, out)
		}
	}
}
