package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/serve"
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

// TestParsePrefixCache pins the -prefix-cache flag: the two mode names
// (and their documented aliases) parse, and every retired spelling —
// the whole-prompt mode, a bare entry count, the -scheduler flag that
// went with the worker pool — exits 2 before training starts, with a
// message that names the surviving trie and off modes.
func TestParsePrefixCache(t *testing.T) {
	for in, want := range map[string]string{
		"":     serve.PrefixCacheTrie,
		"trie": serve.PrefixCacheTrie,
		"off":  serve.PrefixCacheOff,
		"none": serve.PrefixCacheOff,
	} {
		if got, err := serve.ParsePrefixCacheMode(in); err != nil || got != want {
			t.Errorf("%q: got (%q, %v), want %q", in, got, err, want)
		}
	}
	for _, c := range []struct{ args, want string }{
		{"-prefix-cache whole", `unknown prefix-cache mode "whole" (want trie or off)`},
		{"-prefix-cache 256", `unknown prefix-cache mode "256" (want trie or off)`},
		{"-prefix-cache trie:64", "(want trie or off)"},
		{"-scheduler x", "flag provided but not defined: -scheduler"},
	} {
		cmd := exec.Command(os.Args[0])
		cmd.Env = append(os.Environ(), vgendTestArgs+"="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("vgend %s: err=%v, want exit status 2\n%s", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("vgend %s: output lacks %q:\n%s", c.args, c.want, out)
		}
		if !strings.Contains(string(out), "trie") || !strings.Contains(string(out), "off") {
			t.Errorf("vgend %s: output does not name the trie and off modes:\n%s", c.args, out)
		}
		if strings.Contains(string(out), "building corpus") {
			t.Errorf("vgend %s: started training before rejecting the flag:\n%s", c.args, out)
		}
	}
}
