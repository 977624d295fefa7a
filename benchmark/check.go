package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/bench"
)

// expectedDir holds one digest file per workload, recorded at the
// default run length with -record.
const expectedDir = "benchmark/expected"

func expectedPath(workload string) string {
	return filepath.Join(expectedDir, workload+".sha256")
}

// digest is the fingerprint of one response: SHA-256 over its
// generation texts, cut to 64 bits — enough to catch any change, small
// enough to commit one per request.
func digest(gens []generation) string {
	h := sha256.New()
	for _, g := range gens {
		h.Write([]byte(g.Text))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestHeader opens a digest file: the workload and the run length it
// was recorded at. Every seed decodes the same set, so the file holds at
// any seed; a shorter run decodes a subset of it.
func digestHeader(workload string, seconds float64) string {
	return fmt.Sprintf("# %s seconds=%g", workload, seconds)
}

// digestKey names a request independently of the order the seed sends
// it in: its phase and sampling seed, unique within a workload.
func digestKey(r *request) string {
	return fmt.Sprintf("%s/%d", r.Phase, r.Body.Seed)
}

// recordDigests writes the digest file for a window: one "key digest"
// line per request, skipping exact repeats — those are held to their
// original's text by checkRepeats.
func recordDigests(win *window, seconds float64) error {
	var lines []string
	for i := range win.Outcomes {
		o := &win.Outcomes[i]
		if !o.ok() {
			return fmt.Errorf("refusing to record: request %d failed: %s", i, o.Err)
		}
		if o.Req.RepeatOf < 0 {
			lines = append(lines, digestKey(o.Req)+" "+digest(o.Gens))
		}
	}
	sort.Strings(lines) // the file does not depend on the recording seed's order
	body := digestHeader(win.Workload.Name, seconds) + "\n" + strings.Join(lines, "\n") + "\n"
	if err := os.MkdirAll(expectedDir, 0o755); err != nil {
		return err
	}
	return os.WriteFile(expectedPath(win.Workload.Name), []byte(body), 0o644)
}

// checkDigests compares every response with its recorded digest and
// fails the ones that differ; it returns how many it compared. At the
// recorded run length the file must hold exactly the window's distinct
// requests; at another length, requests the file does not know are left
// to the replay check.
func checkDigests(win *window, file []byte, seconds float64) (compared int, err error) {
	sc := bufio.NewScanner(bytes.NewReader(file))
	sc.Scan()
	strict := sc.Text() == digestHeader(win.Workload.Name, seconds)
	want := map[string]string{}
	for sc.Scan() {
		if key, sum, ok := strings.Cut(strings.TrimSpace(sc.Text()), " "); ok {
			want[key] = sum
		}
	}
	distinct := 0
	for i := range win.Outcomes {
		o := &win.Outcomes[i]
		if o.Req.RepeatOf >= 0 {
			continue
		}
		distinct++
		sum, ok := want[digestKey(o.Req)]
		if !ok {
			continue
		}
		compared++
		if o.ok() && digest(o.Gens) != sum {
			o.Err = "output differs from the recorded digest"
		}
	}
	if strict && (compared != distinct || distinct != len(want)) {
		return compared, fmt.Errorf("digest file has %d entries, %d of them for this run's %d distinct requests: the workload generator changed; run -record", len(want), compared, distinct)
	}
	return compared, nil
}

// quality scores every generation of the window the way the paper
// does: the module parses; the module passes its problem's testbench.
func quality(outs []outcome) (syntaxShare, funcShare float64, n int) {
	probs := bench.All()
	syn, fn := 0, 0
	for i := range outs {
		if !outs[i].ok() {
			continue
		}
		for k, g := range outs[i].Gens {
			n++
			if !bench.CheckSyntax(g.Text) {
				continue
			}
			syn++
			if bench.CheckFunction(g.Text, probs[outs[i].Req.Problems[k]]) {
				fn++
			}
		}
	}
	return ratio(float64(syn), float64(n)), ratio(float64(fn), float64(n)), n
}
