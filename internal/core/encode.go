package core

// JSON encoding of analysis results — the single wire format shared by the
// subsubcc CLI (-json) and the subsubd daemon (POST /v1/analyze). Both call
// MarshalBatch, so for identical inputs the two produce byte-identical
// output, which is what lets the daemon's content-addressed cache replay a
// stored response in place of a fresh CLI run.
//
// Every list is written in a deterministic order (properties by array
// name, loops by function name then label, results in input order), so
// the encoding is a pure function of the analysis result. The wire
// structs below are the schema: MarshalBatch writes their encoding
// directly, and readers (subsubd -selfcheck, the tests) decode into them.

import (
	"fmt"
	"sort"
	"strconv"
	"unicode/utf8"

	"repro/internal/parallelize"
	"repro/internal/property"
	"repro/internal/symbolic"
)

// LevelName returns the canonical request-level name of an analysis level
// ("classical", "base" or "new") — the inverse of ParseLevel.
func LevelName(l Level) string {
	switch l {
	case Classical:
		return "classical"
	case Base:
		return "base"
	default:
		return "new"
	}
}

// ParseLevel maps a canonical level name to the analysis level. The empty
// string defaults to "new" (the paper's full algorithm).
func ParseLevel(name string) (Level, error) {
	switch name {
	case "classical":
		return Classical, nil
	case "base":
		return Base, nil
	case "new", "":
		return New, nil
	}
	return 0, fmt.Errorf("unknown analysis level %q (want classical, base or new)", name)
}

// PropertyJSON is the wire form of one subscript-array property.
type PropertyJSON struct {
	Array  string `json:"array"`
	Kind   string `json:"kind"`
	Strict bool   `json:"strict"`
	// Injective and Permutation surface the derived lattice facts:
	// injective covers strict monotonicity as well as the dedicated
	// injective/permutation kinds.
	Injective    bool   `json:"injective,omitempty"`
	Permutation  bool   `json:"permutation,omitempty"`
	Decreasing   bool   `json:"decreasing,omitempty"`
	Dim          int    `json:"dim,omitempty"`
	NumDims      int    `json:"num_dims,omitempty"`
	IndexLo      string `json:"index_lo,omitempty"`
	IndexHi      string `json:"index_hi,omitempty"`
	ValueRange   string `json:"value_range,omitempty"`
	Counter      string `json:"counter,omitempty"`
	CounterFinal string `json:"counter_final,omitempty"`
	DefFunc      string `json:"def_func,omitempty"`
	DefLoop      string `json:"def_loop,omitempty"`
	// Display is the paper's aggregate notation, e.g.
	// A_rownnz[0:irownnz_max] = [0:-1+num_rows]#SMA.
	Display string `json:"display"`
}

// LoopJSON is the wire form of one per-loop parallelization decision.
type LoopJSON struct {
	Func  string `json:"func"`
	Label string `json:"label"`
	Depth int    `json:"depth"`
	// Parallel marks loops the plan actually parallelizes (the outermost
	// parallelizable loop of each nest).
	Parallel bool `json:"parallel"`
	// Reason explains a negative decision.
	Reason string `json:"reason,omitempty"`
	// Pragma is the OpenMP directive attached to a parallelized loop.
	Pragma         string            `json:"pragma,omitempty"`
	Privates       []string          `json:"privates,omitempty"`
	Reductions     map[string]string `json:"reductions,omitempty"`
	RuntimeChecks  []string          `json:"runtime_checks,omitempty"`
	UsedProperties []string          `json:"used_properties,omitempty"`
}

// DiagnosticJSON is the wire form of one contained analysis crash. The
// message is deterministic (panic value, no stack trace), so responses
// for identical failing inputs stay byte-identical and cacheable.
type DiagnosticJSON struct {
	Func    string `json:"func"`
	Stage   string `json:"stage"`
	Loop    string `json:"loop,omitempty"`
	Message string `json:"message"`
}

// ResultJSON is the wire form of one analyzed source.
type ResultJSON struct {
	Name  string `json:"name"`
	Error string `json:"error,omitempty"`
	Level string `json:"level,omitempty"`
	// Properties lists the discovered subscript-array facts, ordered by
	// array name.
	Properties []PropertyJSON `json:"properties,omitempty"`
	// Loops lists every dependence-tested loop, ordered by function name
	// then loop label.
	Loops []LoopJSON `json:"loops,omitempty"`
	// Diagnostics lists per-function/per-nest analysis crashes that were
	// contained: the named units degraded to "no result", the rest of
	// this result is a normal partial analysis.
	Diagnostics []DiagnosticJSON `json:"diagnostics,omitempty"`
	// AnnotatedSource is the OpenMP-annotated program (only when the
	// caller asked for annotation).
	AnnotatedSource string `json:"annotated_source,omitempty"`
}

// BatchJSON is the top-level wire object: one entry per input source, in
// input order.
type BatchJSON struct {
	Results []ResultJSON `json:"results"`
}

// MarshalBatch renders a batch as indented JSON with a trailing newline.
// The bytes are a deterministic function of the results: encoding twice
// yields identical output, and the CLI and the daemon both emit exactly
// these bytes. A failed source carries its name and error and nothing
// else. The error result is always nil.
//
// The writer appends the bytes encoding/json would write for a BatchJSON
// view of the results (two-space indent, no HTML escaping) in one pass
// over each result's plan, without building the view: fields in the
// wire structs' order, each omitempty field left out when empty, map
// keys sorted, strings escaped as appendString does.
func MarshalBatch(results []*BatchResult, annotate bool) ([]byte, error) {
	w := &wire{buf: make([]byte, 0, 4096)}
	w.open('{')
	w.key("results")
	w.open('[')
	for _, br := range results {
		w.next()
		w.result(br, annotate)
	}
	w.close(']')
	w.close('}')
	return append(w.buf, '\n'), nil
}

// wire is an indenting JSON writer over one buffer.
type wire struct {
	buf   []byte
	depth int
	// empty marks an open object or array with no member yet.
	empty bool
	// funcs and labels are sort buffers loops reuses across results.
	funcs, labels []string
}

// open starts an object ('{') or an array ('[').
func (w *wire) open(c byte) {
	w.buf = append(w.buf, c)
	w.depth++
	w.empty = true
}

// close ends the innermost object ('}') or array (']'); an empty one
// stays on its line.
func (w *wire) close(c byte) {
	w.depth--
	if !w.empty {
		w.newline()
	}
	w.buf = append(w.buf, c)
	w.empty = false
}

// next starts a member of the innermost object or array on its own line.
func (w *wire) next() {
	if !w.empty {
		w.buf = append(w.buf, ',')
	}
	w.empty = false
	w.newline()
}

func (w *wire) newline() {
	w.buf = append(w.buf, '\n')
	for i := 0; i < w.depth; i++ {
		w.buf = append(w.buf, ' ', ' ')
	}
}

// key starts the object member name.
func (w *wire) key(name string) {
	w.next()
	w.buf = appendString(w.buf, name)
	w.buf = append(w.buf, ':', ' ')
}

func (w *wire) str(name, v string) {
	w.key(name)
	w.buf = appendString(w.buf, v)
}

// The opt* writers leave out an empty value, as omitempty does.
func (w *wire) optStr(name, v string) {
	if v != "" {
		w.str(name, v)
	}
}

func (w *wire) optExpr(name string, e symbolic.Expr) {
	if e != nil {
		w.optStr(name, e.String())
	}
}

func (w *wire) boolean(name string, v bool) {
	w.key(name)
	w.buf = strconv.AppendBool(w.buf, v)
}

func (w *wire) optBool(name string, v bool) {
	if v {
		w.boolean(name, v)
	}
}

func (w *wire) integer(name string, v int) {
	w.key(name)
	w.buf = strconv.AppendInt(w.buf, int64(v), 10)
}

func (w *wire) optInt(name string, v int) {
	if v != 0 {
		w.integer(name, v)
	}
}

func (w *wire) optStrs(name string, vs []string) {
	if len(vs) == 0 {
		return
	}
	w.key(name)
	w.open('[')
	for _, v := range vs {
		w.next()
		w.buf = appendString(w.buf, v)
	}
	w.close(']')
}

// result writes one ResultJSON.
func (w *wire) result(br *BatchResult, annotate bool) {
	w.open('{')
	w.str("name", br.Name)
	if br.Err != nil {
		w.optStr("error", br.Err.Error())
		w.close('}')
		return
	}
	plan := br.Res.Plan
	w.str("level", LevelName(plan.Level))
	if props := br.Res.Properties(); len(props) > 0 {
		w.key("properties")
		w.open('[')
		for _, p := range props {
			w.next()
			w.property(p)
		}
		w.close(']')
	}
	w.loops(plan)
	if len(plan.Diagnostics) > 0 {
		w.key("diagnostics")
		w.open('[')
		for _, d := range plan.Diagnostics {
			w.next()
			w.open('{')
			w.str("func", d.Func)
			w.str("stage", d.Stage)
			w.optStr("loop", d.Loop)
			w.str("message", d.Message())
			w.close('}')
		}
		w.close(']')
	}
	if annotate {
		w.optStr("annotated_source", br.Res.AnnotatedSource())
	}
	w.close('}')
}

// property writes one PropertyJSON.
func (w *wire) property(p *property.ArrayProperty) {
	w.open('{')
	w.str("array", p.Array)
	w.str("kind", p.Kind.String())
	w.boolean("strict", p.Strict)
	w.optBool("injective", p.Injective())
	w.optBool("permutation", p.Permutation())
	w.optBool("decreasing", p.Decreasing)
	w.optInt("dim", p.Dim)
	w.optInt("num_dims", p.NumDims)
	w.optExpr("index_lo", p.IndexLo)
	w.optExpr("index_hi", p.IndexHi)
	w.optExpr("value_range", p.ValueRange)
	w.optStr("counter", p.Counter)
	w.optExpr("counter_final", p.CounterFinal)
	w.optStr("def_func", p.DefFunc)
	w.optStr("def_loop", p.DefLoop)
	w.str("display", p.String())
	w.close('}')
}

// loops writes the LoopJSON list of a plan, ordered by function name
// then loop label, and nothing when the plan tested no loop.
func (w *wire) loops(plan *parallelize.Plan) {
	w.funcs = w.funcs[:0]
	for fn := range plan.Funcs {
		w.funcs = append(w.funcs, fn)
	}
	sort.Strings(w.funcs)
	listed := false
	for _, fn := range w.funcs {
		fp := plan.Funcs[fn]
		w.labels = w.labels[:0]
		for lbl := range fp.Loops {
			w.labels = append(w.labels, lbl)
		}
		sort.Strings(w.labels)
		for _, lbl := range w.labels {
			if !listed {
				w.key("loops")
				w.open('[')
				listed = true
			}
			w.next()
			w.loop(fn, lbl, fp, fp.Loops[lbl])
		}
	}
	if listed {
		w.close(']')
	}
}

// loop writes one LoopJSON.
func (w *wire) loop(fn, lbl string, fp *parallelize.FuncPlan, lp *parallelize.LoopPlan) {
	d := lp.Decision
	w.open('{')
	w.str("func", fn)
	w.str("label", lbl)
	w.integer("depth", lp.Depth)
	w.boolean("parallel", lp.Chosen)
	if lp.Chosen {
		w.optStr("pragma", fp.Pragmas[lbl])
	} else {
		w.optStr("reason", d.Reason)
	}
	w.optStrs("privates", d.Privates)
	if len(d.Reductions) > 0 {
		w.key("reductions")
		w.open('{')
		vars := make([]string, 0, len(d.Reductions))
		for v := range d.Reductions {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		for _, v := range vars {
			w.str(v, d.Reductions[v])
		}
		w.close('}')
	}
	if len(d.RuntimeChecks) > 0 {
		w.key("runtime_checks")
		w.open('[')
		for _, chk := range d.RuntimeChecks {
			w.next()
			w.buf = appendString(w.buf, chk.String())
		}
		w.close(']')
	}
	w.optStrs("used_properties", d.UsedProperties)
	w.close('}')
}

// appendString appends s as a JSON string, escaped exactly as
// encoding/json escapes it with HTML escaping off: \" and \\; \b \f \n
// \r \t; other control bytes as \u00XX; invalid UTF-8 as \ufffd; U+2028
// and U+2029 as \u2028 and \u2029.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xf])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}
