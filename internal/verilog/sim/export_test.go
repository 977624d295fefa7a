package sim

import "repro/internal/verilog"

// This file exposes internals to the tests in package sim_test, which
// read the benchmark suites and so cannot live in package sim.

// CheckEvalMatchesReference is checkEvalMatchesReference.
var CheckEvalMatchesReference = checkEvalMatchesReference

// CheckStoreMatchesReference is checkStoreMatchesReference.
var CheckStoreMatchesReference = checkStoreMatchesReference

// DeclareAtDefaults elaborates m's parameters, ports and nets as a top
// instance's, at the module's default parameters.
func DeclareAtDefaults(m *verilog.Module) (*Scope, error) {
	sc := &Scope{Name: m.Name, Module: m, Signals: map[string]*Signal{}, Params: map[string]int64{}}
	return sc, (&elaborator{d: &Design{}}).declare(sc, nil)
}
