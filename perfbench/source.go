package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"repro/internal/cminus"
	"repro/internal/corpus"
)

var identRE = regexp.MustCompile(`[A-Za-z_][A-Za-z0-9_]*`)

// program is one corpus program as a workload submits it: the source with
// every identifier prefixed, and the names the analysis needs alongside it.
type program struct {
	bench  *corpus.Benchmark
	prefix string
	src    string
	kernel string
	assume []string
}

// template is a corpus program with the identifiers a prefix renames: every
// name its source declares or uses — functions, parameters, locals,
// globals — except names that are called but never defined (the math
// builtins).
type template struct {
	bench  *corpus.Benchmark
	rename map[string]bool
}

func newTemplate(b *corpus.Benchmark) (*template, error) {
	toks, err := cminus.Tokenize(b.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	prog, err := cminus.Parse(b.Source)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	t := &template{bench: b, rename: map[string]bool{}}
	for i, tok := range toks {
		if tok.Kind != cminus.TokIdent {
			continue
		}
		called := i+1 < len(toks) && toks[i+1].Kind == cminus.TokPunct && toks[i+1].Text == "("
		if called && prog.Func(tok.Text) == nil {
			continue
		}
		t.rename[tok.Text] = true
	}
	return t, nil
}

func newTemplates(benches []*corpus.Benchmark) ([]*template, error) {
	var ts []*template
	for _, b := range benches {
		t, err := newTemplate(b)
		if err != nil {
			return nil, err
		}
		ts = append(ts, t)
	}
	return ts, nil
}

// with returns the program with every renamed identifier spelled pfx+name.
// A common prefix keeps the order of sorted names, and a fresh prefix makes
// the program new text to every memo in the process.
func (t *template) with(pfx string) *program {
	src := identRE.ReplaceAllStringFunc(t.bench.Source, func(id string) string {
		if t.rename[id] {
			return pfx + id
		}
		return id
	})
	p := &program{bench: t.bench, prefix: pfx, src: src, kernel: pfx + t.bench.KernelFunc}
	for _, a := range t.bench.AssumePositive {
		p.assume = append(p.assume, pfx+a)
	}
	return p
}

// unprefix removes the program's prefix from out, which maps an analysis
// result of the prefixed program back onto the result of the original.
// Prefixes are random hex, so they occur nowhere else.
func (p *program) unprefix(out []byte) []byte {
	return bytes.ReplaceAll(out, []byte(p.prefix), nil)
}

// prefixes draws fixed-width identifier prefixes from a seeded generator,
// so every name has the same length whatever the draw.
type prefixes struct{ rng *rand.Rand }

func newPrefixes(seed int64) *prefixes { return &prefixes{rng: rand.New(rand.NewSource(seed))} }

func (p *prefixes) next() string { return fmt.Sprintf("z%08x_", p.rng.Uint32()) }

// withEdit returns src with a fresh scalar declaration added at the top of
// function fn's body: an edit to one function that leaves the rest of the
// program's text unchanged.
func withEdit(src, fn string, k int) (string, error) {
	def := regexp.MustCompile(`(?m)^[a-z]+\s+` + regexp.QuoteMeta(fn) + `\s*\(`).FindStringIndex(src)
	if def == nil {
		return "", fmt.Errorf("edit: no definition of %q", fn)
	}
	brace := strings.IndexByte(src[def[1]:], '{')
	if brace < 0 {
		return "", fmt.Errorf("edit: function %q has no body", fn)
	}
	cut := def[1] + brace + 1
	return src[:cut] + fmt.Sprintf("\n    int edit%d = %d;", k, k) + src[cut:], nil
}
