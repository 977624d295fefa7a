package sim

// This file exposes internals to the tests in package sim_test, which
// read the benchmark suites and so cannot live in package sim.

// CheckEvalMatchesReference is checkEvalMatchesReference.
var CheckEvalMatchesReference = checkEvalMatchesReference
