package dataset

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/model"
	"repro/internal/parallel"
	"repro/internal/verilog"
)

// CorpusOptions controls synthetic corpus generation. The noise the
// raw files carry for the refinement stages is fixed: dupFraction and
// junkFiles.
type CorpusOptions struct {
	// Seed drives all randomness (corpus generation is deterministic).
	Seed int64
	// Items is the number of module items to generate before
	// refinement (the paper's 136,134; default 13,600 — a 1/10-scale
	// corpus that trains in seconds while preserving family coverage).
	Items int
}

// The raw files carry injected noise for the refinement stages to
// remove: exact duplicates of a dupFraction of the items, for the
// MinHash deduplication stage (GitHub scrapes are full of vendored
// copies), and comment-only or truncated files, junkFiles of the file
// count, for the filtering stages.
const (
	dupFraction = 0.08
	junkFiles   = 0.05
)

func (o CorpusOptions) withDefaults() CorpusOptions {
	if o.Items == 0 {
		o.Items = 13600
	}
	return o
}

// Stats reports what each refinement stage did (the paper's Fig. 2
// pipeline observability).
type Stats struct {
	RawFiles      int
	SplitModules  int
	AfterFilter   int
	AfterDedup    int
	SyntaxClean   int
	WithSummaries int // items whose semantic summary survived (MG-Verilog/RTLCoder analogue)
	Described     int // items described structurally (GPT-4 analogue)
}

// String renders a one-line pipeline summary.
func (s Stats) String() string {
	return fmt.Sprintf("files=%d modules=%d filtered=%d deduped=%d clean=%d (summaries=%d, described=%d)",
		s.RawFiles, s.SplitModules, s.AfterFilter, s.AfterDedup, s.SyntaxClean, s.WithSummaries, s.Described)
}

// GenerateRaw produces the synthetic "GitHub scrape": raw .v file
// contents (several modules per file, injected duplicates and junk) and
// a side table of semantic summaries keyed by module name for the
// corpus fraction that models MG-Verilog/RTLCoder (whose items already
// carry summaries, §III-A).
func GenerateRaw(opts CorpusOptions) ([]string, map[string]string, Stats) {
	opts = opts.withDefaults()
	r := rand.New(rand.NewSource(opts.Seed))
	fams := Families()

	items := make([]Item, 0, opts.Items)
	for len(items) < opts.Items {
		f := fams[r.Intn(len(fams))]
		items = append(items, f.gen(r))
	}

	// ~60% of items keep their semantic summary (the MG-Verilog /
	// RTLCoder share); the rest will be described structurally (the
	// GPT-4 share).
	summaries := map[string]string{}
	for _, it := range items {
		if r.Float64() < 0.6 {
			summaries[moduleNameOf(it.Code)] = it.Desc
		}
	}

	// Bundle into files of 1..4 modules, injecting duplicates.
	var files []string
	var cur strings.Builder
	n := 0
	target := 1 + r.Intn(4)
	flush := func() {
		if cur.Len() > 0 {
			files = append(files, cur.String())
			cur.Reset()
			n = 0
			target = 1 + r.Intn(4)
		}
	}
	for _, it := range items {
		cur.WriteString(it.Code)
		cur.WriteString("\n")
		if r.Float64() < dupFraction {
			cur.WriteString(it.Code) // vendored duplicate
			cur.WriteString("\n")
		}
		n++
		if n >= target {
			flush()
		}
	}
	flush()

	// Junk files: comment-only and truncated modules.
	junk := int(float64(len(files)) * junkFiles)
	for i := 0; i < junk; i++ {
		if i%2 == 0 {
			files = append(files, "// placeholder file\n// nothing but comments here\n// (c) 2024\n")
		} else {
			files = append(files, "module broken_thing (\n    input clk,\n// file truncated mid-port-list\n")
		}
	}
	r.Shuffle(len(files), func(i, j int) { files[i], files[j] = files[j], files[i] })

	return files, summaries, Stats{RawFiles: len(files)}
}

// SplitModules extracts complete module...endmodule texts from a file.
func SplitModules(file string) []string {
	var out []string
	rest := file
	for {
		start := strings.Index(rest, "module ")
		if start < 0 {
			return out
		}
		// Reject matches inside line comments.
		lineStart := strings.LastIndexByte(rest[:start], '\n') + 1
		if strings.HasPrefix(strings.TrimSpace(rest[lineStart:start]), "//") {
			rest = rest[start+7:]
			continue
		}
		end := strings.Index(rest[start:], "endmodule")
		if end < 0 {
			return out
		}
		out = append(out, rest[start:start+end+len("endmodule")]+"\n")
		rest = rest[start+end+len("endmodule"):]
	}
}

// FilterModule applies the §III-A completeness/comment filters: the
// non-comment text must contain both module and endmodule, and the file
// must not be mostly comments.
func FilterModule(src string) bool {
	lines := strings.Split(src, "\n")
	comment, code := 0, 0
	var codeText strings.Builder
	for _, ln := range lines {
		t := strings.TrimSpace(ln)
		if t == "" {
			continue
		}
		if strings.HasPrefix(t, "//") {
			comment++
			continue
		}
		code++
		// Strip trailing line comments so "// no endmodule" does not
		// count as structure.
		if i := strings.Index(t, "//"); i >= 0 {
			t = t[:i]
		}
		codeText.WriteString(t)
		codeText.WriteString("\n")
	}
	body := codeText.String()
	if !strings.Contains(body, "module") || !strings.Contains(body, "endmodule") {
		return false
	}
	return code > 0 && comment <= code
}

// moduleNameOf extracts the declared name of the first module.
func moduleNameOf(src string) string {
	idx := strings.Index(src, "module")
	if idx < 0 {
		return ""
	}
	rest := strings.TrimSpace(src[idx+len("module"):])
	for i := 0; i < len(rest); i++ {
		c := rest[i]
		if c == ' ' || c == '(' || c == ';' || c == '\n' || c == '\t' || c == '#' {
			return rest[:i]
		}
	}
	return rest
}

// describe is the GPT-4 substitute: it generates a structural
// functional description of src, parsed as f, from the module
// interface (name, port directions and widths) plus coarse behavioural
// cues (clocked vs combinational, presence of case/if structure).
func describe(f *verilog.SourceFile, src string) string {
	m := f.Modules[0]
	var ins, outs []string
	for _, p := range m.Ports {
		w := 1
		if p.HasRng {
			w = p.Rng.Width()
		}
		pd := p.Name
		if w > 1 {
			pd = fmt.Sprintf("%d-bit %s", w, p.Name)
		}
		if p.Dir == verilog.PortInput {
			ins = append(ins, pd)
		} else {
			outs = append(outs, pd)
		}
	}
	kind := "combinational"
	hasCase := false
	for _, it := range m.Items {
		if alw, ok := it.(*verilog.AlwaysBlock); ok {
			if ec, ok := alw.Body.(*verilog.EventCtrlStmt); ok && !ec.Star {
				for _, s := range ec.Items {
					if s.Edge != verilog.EdgeLevel {
						kind = "clocked"
					}
				}
			}
		}
	}
	if strings.Contains(src, "case") {
		hasCase = true
	}
	d := fmt.Sprintf("Implement the Verilog module %s with inputs %s and outputs %s. It is a %s design",
		m.Name, strings.Join(ins, ", "), strings.Join(outs, ", "), kind)
	if hasCase {
		d += " using case-based selection"
	}
	d += "."
	return d
}

// Refine runs the full Fig. 2 refinement over raw files: split, filter,
// dedup, syntax-check, then attach descriptions (stored summaries when
// available, structural descriptions otherwise). The result is the
// cleaned, described corpus.
func Refine(files []string, summaries map[string]string, stats Stats) ([]Item, Stats) {
	stats.RawFiles = len(files)

	var mods []string
	for _, f := range files {
		mods = append(mods, SplitModules(f)...)
	}
	stats.SplitModules = len(mods)

	var filtered []string
	for _, m := range mods {
		if FilterModule(m) {
			filtered = append(filtered, m)
		}
	}
	stats.AfterFilter = len(filtered)

	keep := Deduplicate(filtered)
	deduped := make([]string, 0, len(keep))
	for _, i := range keep {
		deduped = append(deduped, filtered[i])
	}
	stats.AfterDedup = len(deduped)

	// The syntax gate (Stagira substitute) and the descriptions run on
	// every core, one module at a time; a module that fails the gate
	// keeps an empty item.
	items := make([]Item, len(deduped))
	parallel.For(len(deduped), func(i int) {
		src := deduped[i]
		f, err := verilog.Parse(src)
		if err != nil {
			return
		}
		if desc, ok := summaries[moduleNameOf(src)]; ok {
			items[i] = Item{Desc: desc, Code: src, Family: "summarized"}
		} else {
			items[i] = Item{Desc: describe(f, src), Code: src, Family: "described"}
		}
	})
	var out []Item
	for _, it := range items {
		switch it.Family {
		case "summarized":
			stats.WithSummaries++
		case "described":
			stats.Described++
		default:
			continue
		}
		out = append(out, it)
	}
	stats.SyntaxClean = len(out)
	return out, stats
}

// BuildCorpus is the one-call path: generate raw files, refine them,
// and return training examples plus stats.
func BuildCorpus(opts CorpusOptions) ([]model.Example, Stats) {
	files, summaries, stats := GenerateRaw(opts)
	items, stats := Refine(files, summaries, stats)
	examples := make([]model.Example, len(items))
	for i, it := range items {
		examples[i] = model.Example{Prompt: it.Desc, Code: it.Code}
	}
	return examples, stats
}

// Subset returns the first fraction of examples (numerator/denominator)
// — the paper's 1/4, 2/4, 3/4, 4/4 data-size sweep. Examples are
// already shuffled by construction, so prefixes are unbiased samples.
func Subset(examples []model.Example, numerator, denominator int) []model.Example {
	n := len(examples) * numerator / denominator
	return examples[:n]
}
