package frag

import "repro/internal/verilog"

// This file exposes internals to the tests in package frag_test, which
// build vgend's corpus and so cannot live in package frag.

// SegmentRegexp segments src the way the regexp segmenter did, with the
// significant set it used: the AST leaves' spellings and the extra list.
func SegmentRegexp(src string) ([]Piece, error) {
	f, err := verilog.Parse(src)
	if err != nil {
		return nil, err
	}
	set := map[string]bool{}
	for k := range extra {
		set[k] = true
	}
	collectLeaves(f, set)
	return segmentRegexp(src, set), nil
}
