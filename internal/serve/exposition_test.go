package serve

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/promtest"
)

// probeMetrics is a test-local snapshot struct with one field of every
// shape the tag scheme knows. Nothing outside this file mentions it:
// if it reaches the JSON body, the exposition and the fold, then adding
// a metric really is one tagged field.
type probeMetrics struct {
	Name    string                `json:"name"`
	Hits    uint64                `json:"hits" prom:"probe_hits_total" help:"A counter."`
	Peak    float64               `json:"peak" prom:"probe_peak" help:"A max gauge." agg:"max"`
	Mode    string                `json:"mode" prom:"probe_info" label:"mode" help:"An info string."`
	Rate    float64               `json:"rate" prom:"probe_rate" help:"A derived gauge." agg:"derived"`
	Depth   []uint64              `json:"depth" prom:"probe_depth_total" label:"depth" help:"A bucket slice."`
	ByKind  map[string]uint64     `json:"by_kind" prom:"probe_by_kind_total" label:"kind" help:"A labelled map."`
	PerPart map[string]probePart  `json:"per_part" label:"part"`
	Parts   []probePart           `json:"parts" label:"slot"`
	Nested  probePart             `json:"nested" families:"alt"`
	Limit   int                   `json:"limit,omitempty" prom:"probe_limit" help:"Rendered only when set."`
	Quiet   uint64                `json:"quiet"`
	Empty   map[string]uint64     `json:"empty" prom:"probe_empty_total" label:"kind" help:"Never sampled."`
	Pairs   map[string]probePairs `json:"pairs" label:"pair"`
}

type probePart struct {
	Name string `json:"name"`
	Ops  uint64 `json:"ops" prom:"probe_part_ops_total" alt:"probe_alt_ops_total" help:"Operations per part."`
}

type probePairs struct {
	Depth []uint64 `json:"depth" prom:"probe_pair_depth_total" label:"depth" help:"Buckets under an outer label."`
}

func probe(hits uint64, peak float64, mode string) probeMetrics {
	return probeMetrics{
		Name: "p", Hits: hits, Peak: peak, Mode: mode, Rate: 0.5, Quiet: 7,
		Depth:   []uint64{hits, 1},
		ByKind:  map[string]uint64{"a": hits, "b": 1},
		PerPart: map[string]probePart{"x": {Ops: hits}},
		Parts:   []probePart{{Name: "s0", Ops: hits}, {Name: "s1", Ops: 1}},
		Nested:  probePart{Ops: hits},
		Pairs:   map[string]probePairs{"q": {Depth: []uint64{hits}}},
	}
}

// TestProbeMetricThroughJSONExpositionAndFold is ROADMAP's "adding a
// counter touches one file": every shape of tagged field is found in
// the JSON body, in the rendered exposition (lint-clean, grouped per
// family) and in the fold.
func TestProbeMetricThroughJSONExpositionAndFold(t *testing.T) {
	a, b := probe(3, 0.9, "on"), probe(4, 0.2, "on")
	b.Depth = append(b.Depth, 5) // a longer histogram grows the folded one

	raw, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"hits":3`, `"peak":0.9`, `"mode":"on"`, `"depth":[3,1]`, `"by_kind":{"a":3,"b":1}`, `"per_part":{"x":{`, `"ops":3`} {
		if !strings.Contains(string(raw), key) {
			t.Errorf("JSON body lacks %s: %s", key, raw)
		}
	}

	x := NewExposition("probe-model", 1)
	x.Struct(a, "outer", "o")
	var sb strings.Builder
	x.Render(&sb)
	text := sb.String()
	for _, lintErr := range promtest.Lint(text) {
		t.Error(lintErr)
	}
	for _, want := range []string{
		"# TYPE probe_hits_total counter\nprobe_hits_total{outer=\"o\"} 3\n",
		"# TYPE probe_peak gauge\nprobe_peak{outer=\"o\"} 0.9\n",
		`probe_info{outer="o",mode="on"} 1`,
		"probe_depth_total{outer=\"o\",depth=\"1\"} 3\nprobe_depth_total{outer=\"o\",depth=\"2+\"} 1\n",
		"probe_by_kind_total{outer=\"o\",kind=\"a\"} 3\nprobe_by_kind_total{outer=\"o\",kind=\"b\"} 1\n",
		// One family, one HELP/TYPE pair, though its samples arrive from
		// a map and then a slice of structs.
		"# TYPE probe_part_ops_total counter\n" +
			"probe_part_ops_total{outer=\"o\",part=\"x\"} 3\n" +
			"probe_part_ops_total{outer=\"o\",slot=\"s0\"} 3\n" +
			"probe_part_ops_total{outer=\"o\",slot=\"s1\"} 1\n",
		// families:"alt" switches the nested struct to its alt tag.
		`probe_alt_ops_total{outer="o"} 3`,
		`probe_pair_depth_total{outer="o",pair="q",depth="1+"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition lacks %q:\n%s", want, text)
		}
	}
	for _, gone := range []string{"probe_limit", "probe_empty_total", "quiet"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition renders %s (zero omitempty / never sampled / untagged)", gone)
		}
	}
	a.Limit = 9
	x = NewExposition("probe-model", 1)
	x.Struct(a)
	sb.Reset()
	x.Render(&sb)
	if !strings.Contains(sb.String(), "probe_limit 9\n") {
		t.Errorf("set omitempty field not rendered:\n%s", sb.String())
	}

	var sum probeMetrics
	for _, p := range []probeMetrics{a, b, probe(1, 0.4, "on")} {
		fold(reflect.ValueOf(&sum).Elem(), reflect.ValueOf(p), "")
	}
	if sum.Hits != 8 || sum.Peak != 0.9 || sum.Rate != 0 || sum.Quiet != 21 {
		t.Errorf("scalar fold: %+v", sum)
	}
	if !reflect.DeepEqual(sum.Depth, []uint64{8, 3, 5}) || !reflect.DeepEqual(sum.ByKind, map[string]uint64{"a": 8, "b": 3}) {
		t.Errorf("bucket/map fold: depth %v by_kind %v", sum.Depth, sum.ByKind)
	}
	if sum.PerPart["x"].Ops != 8 || sum.Nested.Ops != 8 || len(sum.Parts) != 2 || sum.Parts[1].Ops != 3 || sum.Pairs["q"].Depth[0] != 8 {
		t.Errorf("nested fold: %+v", sum)
	}
	if a.Depth[0] != 3 || a.Pairs["q"].Depth[0] != 3 {
		t.Errorf("fold wrote through to a source: %+v", a)
	}
}
