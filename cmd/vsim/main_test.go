package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRun checks vsim's exit codes and streams, and that a simulator
// error is printed with its "sim:" prefix once.
func TestRun(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	ok := write("ok.v", `module tb; initial begin $display("hi"); $finish; end endmodule`)
	bad := write("bad.v", `module sub #(parameter W = 8) (); endmodule
module tb; sub #(.L(1)) u(); endmodule`)

	cases := []struct {
		args           []string
		code           int
		stdout, stderr string
	}{
		{[]string{ok}, 0, "hi\n-- finished at time 0 (finish=true)\n", ""},
		{[]string{bad}, 1, "", "sim: tb.u: override of \"L\" names no parameter of module sub\n"},
		{nil, 2, "", "usage: vsim [-top tb] file.v...\n"},
		{[]string{filepath.Join(dir, "missing.v")}, 1, "", filepath.Join(dir, "missing.v") + ": open"},
	}
	for _, c := range cases {
		var stdout, stderr strings.Builder
		code := run(c.args, &stdout, &stderr)
		if code != c.code || stdout.String() != c.stdout || !strings.HasPrefix(stderr.String(), c.stderr) {
			t.Errorf("run(%q) = %d, stdout %q, stderr %q; want %d, %q, %q", c.args, code, stdout.String(), stderr.String(), c.code, c.stdout, c.stderr)
		}
	}
}
