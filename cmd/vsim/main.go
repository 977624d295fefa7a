// Command vsim runs the event-driven simulator (the iverilog
// substitute) on one or more Verilog files. The top module is
// auto-detected (the module nobody instantiates) unless -top is given.
//
// Usage: vsim [-top tb] [-maxtime N] file.v...
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/verilog"
	"repro/internal/verilog/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is vsim with its arguments and output streams; it returns the
// exit code.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	top := fs.String("top", "", "top module (default: auto-detect)")
	maxTime := fs.Uint64("maxtime", 0, "simulated time limit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: vsim [-top tb] file.v...")
		return 2
	}
	var sb strings.Builder
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			return 1
		}
		sb.Write(data)
		sb.WriteString("\n")
	}
	f, err := verilog.Parse(sb.String())
	if err != nil {
		fmt.Fprintf(stderr, "parse: %v\n", err)
		return 1
	}
	res, err := sim.Run([]*verilog.SourceFile{f}, *top, sim.Options{MaxTime: *maxTime})
	if res != nil {
		fmt.Fprint(stdout, res.Output)
	}
	if err != nil {
		// Simulator errors name themselves ("sim: <where>: ...").
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "-- finished at time %d (finish=%v)\n", res.Time, res.Finished)
	return 0
}
