package core

// JSON encoding of analysis results — the single wire format shared by the
// subsubcc CLI (-json) and the subsubd daemon (POST /v1/analyze). Both call
// MarshalBatch, so for identical inputs the two produce byte-identical
// output, which is what lets the daemon's content-addressed cache replay a
// stored response in place of a fresh CLI run.
//
// Every slice in the view is emitted in a deterministic order (properties
// by array name, loops by function name then label, results in input
// order), so the encoding is a pure function of the analysis result.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"

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

func exprString(e symbolic.Expr) string {
	if e == nil {
		return ""
	}
	return e.String()
}

func propertyJSON(p *property.ArrayProperty) PropertyJSON {
	return PropertyJSON{
		Array:        p.Array,
		Kind:         p.Kind.String(),
		Strict:       p.Strict,
		Injective:    p.Injective(),
		Permutation:  p.Permutation(),
		Decreasing:   p.Decreasing,
		Dim:          p.Dim,
		NumDims:      p.NumDims,
		IndexLo:      exprString(p.IndexLo),
		IndexHi:      exprString(p.IndexHi),
		ValueRange:   exprString(p.ValueRange),
		Counter:      p.Counter,
		CounterFinal: exprString(p.CounterFinal),
		DefFunc:      p.DefFunc,
		DefLoop:      p.DefLoop,
		Display:      p.String(),
	}
}

// JSON builds the wire view of a result. name labels the source (a file
// name or request-supplied name); annotate includes the OpenMP-annotated
// program.
func (r *Result) JSON(name string, annotate bool) ResultJSON {
	out := ResultJSON{Name: name, Level: LevelName(r.Plan.Level)}
	for _, p := range r.Properties() {
		out.Properties = append(out.Properties, propertyJSON(p))
	}
	funcs := make([]string, 0, len(r.Plan.Funcs))
	for n := range r.Plan.Funcs {
		funcs = append(funcs, n)
	}
	sort.Strings(funcs)
	for _, fn := range funcs {
		fp := r.Plan.Funcs[fn]
		labels := make([]string, 0, len(fp.Loops))
		for lbl := range fp.Loops {
			labels = append(labels, lbl)
		}
		sort.Strings(labels)
		for _, lbl := range labels {
			lp := fp.Loops[lbl]
			lj := LoopJSON{
				Func:           fn,
				Label:          lbl,
				Depth:          lp.Depth,
				Parallel:       lp.Chosen,
				Privates:       lp.Decision.Privates,
				Reductions:     lp.Decision.Reductions,
				UsedProperties: lp.Decision.UsedProperties,
			}
			if lp.Chosen {
				lj.Pragma = fp.Pragmas[lbl]
			} else {
				lj.Reason = lp.Decision.Reason
			}
			for _, chk := range lp.Decision.RuntimeChecks {
				lj.RuntimeChecks = append(lj.RuntimeChecks, chk.String())
			}
			out.Loops = append(out.Loops, lj)
		}
	}
	for _, d := range r.Plan.Diagnostics {
		out.Diagnostics = append(out.Diagnostics, DiagnosticJSON{
			Func:    d.Func,
			Stage:   d.Stage,
			Loop:    d.Loop,
			Message: d.Message(),
		})
	}
	if annotate {
		out.AnnotatedSource = r.AnnotatedSource()
	}
	return out
}

// BatchJSONOf builds the wire view of a batch, preserving input order. A
// failed source carries its error string and nothing else.
func BatchJSONOf(results []*BatchResult, annotate bool) BatchJSON {
	batch := BatchJSON{Results: make([]ResultJSON, 0, len(results))}
	for _, br := range results {
		if br.Err != nil {
			batch.Results = append(batch.Results, ResultJSON{Name: br.Name, Error: br.Err.Error()})
			continue
		}
		batch.Results = append(batch.Results, br.Res.JSON(br.Name, annotate))
	}
	return batch
}

// MarshalBatch renders a batch as indented JSON with a trailing newline.
// The bytes are a deterministic function of the results: encoding twice
// yields identical output, and the CLI and the daemon both emit exactly
// these bytes.
func MarshalBatch(results []*BatchResult, annotate bool) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(BatchJSONOf(results, annotate)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
