package cluster

import (
	"context"
	"os"
	"path"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"repro/internal/serve"
)

// TestFleetPerStrategyRatesExact pins the fleet's derived rates to the
// sums it now carries: after a round-robin run that decodes every
// strategy on both replicas, each fleet per-strategy rate must equal
// the folded numerator over the folded denominator — not a
// completed-decode-weighted blend of the replicas' own rates.
func TestFleetPerStrategyRatesExact(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, &roundRobinRouter{}, nil, serve.Config{
		Workers: 1, MaxBatch: 2, CacheSize: -1,
	})
	strategies := []string{"ours-tree", "ntp", "ours"}
	for i := 0; i < 4*len(strategies); i++ {
		opts := testOptions(int64(i))
		opts.Strategy = strategies[i%len(strategies)]
		req := serve.Request{Prompt: prompts[i%len(prompts)], Options: opts}
		if resp, err := f.Generate(context.Background(), req); err != nil || resp.Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, resp.Err)
		}
	}

	fm := f.Metrics()
	if len(fm.Fleet.PerStrategy) != len(strategies) {
		t.Fatalf("fleet saw strategies %v, want %d of them", fm.Fleet.PerStrategy, len(strategies))
	}
	blended := false
	for name, agg := range fm.Fleet.PerStrategy {
		var steps, raw, clean uint64
		var sim, weighted, completed float64
		for _, r := range fm.PerReplica {
			sm := r.Engine.PerStrategy[name]
			if sm.Steps == 0 {
				t.Fatalf("strategy %s never decoded on %s; the fold is untested", name, r.Name)
			}
			steps += sm.Steps
			raw += sm.RawTokens
			clean += sm.CleanTokens
			sim += sm.SimSeconds
			weighted += sm.MeanAccepted * float64(sm.Completed)
			completed += float64(sm.Completed)
		}
		if agg.Steps != steps || agg.RawTokens != raw || agg.CleanTokens != clean || agg.SimSeconds != sim {
			t.Errorf("strategy %s: fleet sums %d/%d/%d/%g, per-replica sums %d/%d/%d/%g",
				name, agg.Steps, agg.RawTokens, agg.CleanTokens, agg.SimSeconds, steps, raw, clean, sim)
		}
		if want := float64(raw) / float64(steps); agg.MeanAccepted != want {
			t.Errorf("strategy %s: fleet mean_accepted %v, want raw/steps = %v", name, agg.MeanAccepted, want)
		}
		if want := float64(clean) / sim; agg.TokensPerSecSim != want {
			t.Errorf("strategy %s: fleet tokens_per_sec_sim %v, want clean/sim = %v", name, agg.TokensPerSecSim, want)
		}
		if weighted/completed != agg.MeanAccepted {
			blended = true
		}
	}
	if !blended {
		t.Error("the completed-weighted blend equals the exact rate for every strategy; the run cannot tell them apart")
	}
}

// TestFleetAggregatesAdaptMetrics pins the fleet roll-up of the
// accept-depth observability that tuning the speculation depth reads:
// requests spread over both replicas, each per-strategy accept-depth
// histogram of the fleet is the element-wise sum of the replicas' ones,
// and the per-strategy accept-depth family appears in the fleet
// exposition.
func TestFleetAggregatesAdaptMetrics(t *testing.T) {
	_, prompts := fixture(t)
	f := newFleet(t, 2, &roundRobinRouter{}, nil, serve.Config{
		Workers: 1, MaxBatch: 2, CacheSize: -1,
	})
	for i := 0; i < 6; i++ {
		req := serve.Request{Prompt: prompts[i], Options: testOptions(int64(i))}
		if resp, err := f.Generate(context.Background(), req); err != nil || resp.Err != nil {
			t.Fatalf("request %d: %v / %v", i, err, resp.Err)
		}
	}

	fm := f.Metrics()
	for _, r := range fm.PerReplica {
		if r.Engine.Completed == 0 {
			t.Fatalf("replica %s decoded nothing; aggregation untested", r.Name)
		}
	}
	if len(fm.Fleet.PerStrategy) == 0 {
		t.Fatal("fleet reports no per-strategy metrics")
	}
	for name, agg := range fm.Fleet.PerStrategy {
		if len(agg.AcceptDepthHist) == 0 {
			t.Fatalf("strategy %s: fleet lost the accept-depth histogram", name)
		}
		sum := make([]uint64, len(agg.AcceptDepthHist))
		for _, r := range fm.PerReplica {
			for i, v := range r.Engine.PerStrategy[name].AcceptDepthHist {
				sum[i] += v
			}
		}
		if !reflect.DeepEqual(sum, agg.AcceptDepthHist) {
			t.Fatalf("strategy %s: fleet accept-depth histogram %v, per-replica sum %v", name, agg.AcceptDepthHist, sum)
		}
	}

	var sb strings.Builder
	f.WritePrometheusTo(&sb, 1)
	if want := `vgend_strategy_accept_depth_total{strategy="Ours",depth="1"}`; !strings.Contains(sb.String(), want) {
		t.Errorf("fleet exposition missing %q", want)
	}
}

// declaredStructs collects the struct types reachable from t: the
// four snapshot structs, starting from the fleet's.
func declaredStructs(t reflect.Type, seen map[reflect.Type]bool) {
	switch t.Kind() {
	case reflect.Map, reflect.Slice:
		declaredStructs(t.Elem(), seen)
	case reflect.Struct:
		if !seen[t] {
			seen[t] = true
			for i := 0; i < t.NumField(); i++ {
				declaredStructs(t.Field(i).Type, seen)
			}
		}
	}
}

// TestMetricsDeclarationsWellFormed checks the tags of cluster.Metrics,
// cluster.ReplicaMetrics, serve.Metrics and serve.StrategyMetrics — the
// declarations everything else derives from: every family has help,
// agg rules come from the known set, a _total family is an unsigned or
// float sum, collections name their label, no struct repeats a JSON
// key and no family is declared twice.
func TestMetricsDeclarationsWellFormed(t *testing.T) {
	structs := map[reflect.Type]bool{}
	declaredStructs(reflect.TypeOf(Metrics{}), structs)
	if len(structs) != 4 {
		t.Fatalf("reached %d snapshot structs, want 4: %v", len(structs), structs)
	}
	families := map[string]string{}
	for st := range structs {
		jsonKeys := map[string]bool{}
		for i := 0; i < st.NumField(); i++ {
			sf := st.Field(i)
			where := st.Name() + "." + sf.Name
			key, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
			if key == "" || jsonKeys[key] {
				t.Errorf("%s: JSON key %q missing or repeated", where, key)
			}
			jsonKeys[key] = true
			agg := sf.Tag.Get("agg")
			if agg != "" && agg != "max" && agg != "derived" {
				t.Errorf("%s: unknown agg rule %q", where, agg)
			}
			elem := sf.Type
			collection := elem.Kind() == reflect.Map || elem.Kind() == reflect.Slice
			if collection {
				elem = elem.Elem()
			}
			if (collection || elem.Kind() == reflect.String) && sf.Tag.Get("label") == "" &&
				(elem.Kind() == reflect.Struct || sf.Tag.Get("prom") != "") {
				t.Errorf("%s: exported under a label it does not name", where)
			}
			for _, tag := range []string{"prom", "replica"} {
				family := sf.Tag.Get(tag)
				if family == "" {
					continue
				}
				if sf.Tag.Get("help") == "" {
					t.Errorf("%s: family %s has no help", where, family)
				}
				if !strings.HasPrefix(family, "vgend_") {
					t.Errorf("%s: family %s outside the vgend_ namespace", where, family)
				}
				if prev, dup := families[family]; dup {
					t.Errorf("%s: family %s already declared by %s", where, family, prev)
				}
				families[family] = where
				summed := elem.Kind() == reflect.Uint64 || elem.Kind() == reflect.Float64
				if strings.HasSuffix(family, "_total") && (!summed || agg != "") {
					t.Errorf("%s: counter %s must be an unsigned or float sum (is %s, agg %q)", where, family, sf.Type, agg)
				}
			}
		}
	}
}

var (
	docFamilyRE  = regexp.MustCompile("`(vgend_[a-z0-9_*]+)")
	bareFamilyRE = regexp.MustCompile(`\b(vgend_[a-z0-9_*]+)`)
)

// TestDocumentedFamiliesExist is the doc lint: every `vgend_…` family
// named in README.md, in the verify skill and in cmd/vgend's doc
// comment (there unquoted) must match a family the engine or the fleet
// actually exposes; a * in a documented name is a glob.
func TestDocumentedFamiliesExist(t *testing.T) {
	exposed := map[string]bool{}
	for _, line := range currentSurface(t) {
		if fields := strings.Fields(line); fields[1] == "prom" {
			exposed[fields[2]] = true
		}
	}
	// The autoscaler's bounds are exported only when autoscaling is on.
	exposed["vgend_fleet_scale_min_replicas"], exposed["vgend_fleet_scale_max_replicas"] = true, true

	read := func(file string) string {
		raw, err := os.ReadFile("../../" + file)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	mainDoc, _, _ := strings.Cut(read("cmd/vgend/main.go"), "\npackage main")
	for _, doc := range []struct {
		file, text string
		re         *regexp.Regexp
	}{
		{"README.md", read("README.md"), docFamilyRE},
		{".claude/skills/verify/SKILL.md", read(".claude/skills/verify/SKILL.md"), docFamilyRE},
		{"cmd/vgend/main.go", mainDoc, bareFamilyRE},
	} {
		names := doc.re.FindAllStringSubmatch(doc.text, -1)
		if len(names) == 0 {
			t.Errorf("%s names no vgend_ family; the lint is reading the wrong text", doc.file)
		}
		for _, m := range names {
			found := false
			for family := range exposed {
				if ok, _ := path.Match(m[1], family); ok {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s documents %s, which neither exposition carries", doc.file, m[1])
			}
		}
	}
}
