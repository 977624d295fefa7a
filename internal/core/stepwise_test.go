package core

import (
	"context"
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"repro/internal/model"
	"repro/internal/trace"
)

// TestStepwiseMatchesGenerate: many decodes alive at once on one shared
// trie, stepped round-robin in an order reshuffled every round — the
// interleaving the continuous scheduler produces — must each be
// byte-identical to the monolithic generate path, for every strategy.
func TestStepwiseMatchesGenerate(t *testing.T) {
	m := trained(t, model.SchemeOurs)
	d := NewDecoder(m).WithSessionCache(model.NewTrieCache(0))
	ids := model.CanonicalPromptIDs(m.Tokenizer(), trainExamples[1].Prompt)
	var wants []*Result
	var states []*DecodeState
	var names []string
	for _, strat := range []string{"ntp", "medusa", "ours", "prompt-lookup", "ours-tree"} {
		for seed := int64(0); seed < 3; seed++ {
			opts := Options{Strategy: strat, MaxNewTokens: 48, Seed: seed}
			want, err := d.GenerateCtx(context.Background(), trainExamples[1].Prompt, opts)
			if err != nil {
				t.Fatal(err)
			}
			st, err := d.BeginDecode(context.Background(), ids, opts, nil)
			if err != nil {
				t.Fatal(err)
			}
			wants, states = append(wants, want), append(states, st)
			names = append(names, strat+"/seed="+strconv.FormatInt(seed, 10))
		}
	}
	order := make([]int, len(states))
	for i := range order {
		order[i] = i
	}
	rng := rand.New(rand.NewSource(99))
	interleaved := 0
	for len(order) > 0 {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		next := order[:0]
		for _, i := range order {
			if len(order) >= 2 {
				interleaved++
			}
			if !states[i].Step() {
				next = append(next, i)
			}
		}
		order = next
	}
	if interleaved == 0 {
		t.Fatal("no step ran with another decode live")
	}
	for i, st := range states {
		got, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Tokens, wants[i].Tokens) || got.Text != wants[i].Text || got.Steps != wants[i].Steps {
			t.Fatalf("%s: interleaved step-wise decode diverged from generate", names[i])
		}
	}
}

// TestStepwiseTrieHitDepth: the session_prep span's trie_hit_depth is
// what the trie held before this decode looked the prompt up — 0 on a
// cold trie, the stem's length for a prompt extending a decoded one,
// the whole prompt on a repeat.
func TestStepwiseTrieHitDepth(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m).WithSessionCache(model.NewTrieCache(0))
	ids := model.CanonicalPromptIDs(m.Tokenizer(), trainExamples[0].Prompt)
	stem := ids[:2*len(ids)/3]
	tracer := trace.New(trace.Config{})
	depth := func(promptIDs []int) string {
		t.Helper()
		tr := tracer.StartTrace(trace.NewID())
		st, err := d.BeginDecode(trace.NewContext(context.Background(), tr), promptIDs, Options{MaxNewTokens: 4}, nil)
		if err != nil {
			t.Fatal(err)
		}
		for !st.Step() {
		}
		if _, err := st.Finish(); err != nil {
			t.Fatal(err)
		}
		for _, sp := range tr.SnapshotNow().Spans {
			if sp.Kind != trace.KindSessionPrep {
				continue
			}
			for _, a := range sp.Attrs {
				if a.Key == "trie_hit_depth" {
					return a.Value
				}
			}
		}
		t.Fatal("session_prep span carries no trie_hit_depth")
		return ""
	}
	for _, c := range []struct {
		what   string
		prompt []int
		want   int
	}{
		{"cold trie", stem, 0},
		{"extension of the stem", ids, len(stem)},
		{"repeat", ids, len(ids)},
	} {
		if got := depth(c.prompt); got != strconv.Itoa(c.want) {
			t.Errorf("%s: trie_hit_depth=%s, want %d", c.what, got, c.want)
		}
	}
}

// TestStepwiseCancellation: a cancelled context must surface on the
// next Step with the partial result intact — the contract the
// scheduler's retire path relies on.
func TestStepwiseCancellation(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	ids := model.CanonicalPromptIDs(m.Tokenizer(), trainExamples[0].Prompt)
	ctx, cancel := context.WithCancel(context.Background())
	st, err := d.BeginDecode(ctx, ids, Options{Strategy: "ntp", MaxNewTokens: 64}, nil)
	if err != nil {
		t.Fatal(err)
	}
	st.Step()
	st.Step()
	cancel()
	if !st.Step() {
		t.Fatal("Step after cancellation did not report completion")
	}
	res, err := st.Finish()
	if err != context.Canceled {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res.Steps != 2 || len(res.Tokens) == 0 || res.Text == "" {
		t.Fatalf("partial result not preserved: steps=%d tokens=%d", res.Steps, len(res.Tokens))
	}
}

// TestStepwiseUnknownStrategy: BeginDecode owns the only error.
func TestStepwiseUnknownStrategy(t *testing.T) {
	m := trained(t, model.SchemeNTP)
	d := NewDecoder(m)
	if _, err := d.BeginDecode(context.Background(), []int{1}, Options{Strategy: "nope"}, nil); err == nil {
		t.Fatal("unknown strategy did not error")
	}
}
