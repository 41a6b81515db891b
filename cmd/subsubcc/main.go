// Command subsubcc analyzes mini-C source files with the
// subscripted-subscript recurrence analysis and prints the discovered
// subscript-array properties, per-loop parallelization decisions, and the
// OpenMP-annotated source.
//
// Several files may be given; they are analyzed as one concurrent batch
// over -workers goroutines, and the output is printed in argument order,
// bit-identical to analyzing each file on its own. A file that fails to
// read or parse does not stop the batch: results are still printed for
// the files that succeeded, the failures are listed per file on stderr,
// and the exit status is 1.
//
// With -json the output is the same JSON encoding the subsubd daemon
// returns from POST /v1/analyze — byte-identical for identical inputs,
// including per-file errors in their result slots.
//
// Usage:
//
//	subsubcc [-level classical|base|new] [-assume sym1,sym2] [-annotate] [-json] [-workers N] [-timeout 5s] [-budget 1000000] [-trace out.json] file.c [file2.c ...]
//
// -timeout and -budget bound each file's analysis in wall-clock time and
// abstract work steps; a file that exceeds either limit fails with a
// typed error in its own slot, reported like any other per-file failure.
//
// -incr-stats runs the batch over a function-granular incremental unit
// store (internal/incr) and prints a per-function analysis/plan
// hit-miss table to stderr after the run, so reuse across the batch
// (identical functions appearing in several files) is observable from
// the CLI. The analysis output is byte-identical with or without it.
//
// -trace records the whole batch under the pipeline trace recorder and
// writes Chrome trace-event JSON to the given file — load it in
// chrome://tracing or Perfetto to see parse/phase1/phase2/depend spans
// nested per function and per source, with worker lanes for parallel
// runs. A per-stage aggregate table (cumulative/self time, budget steps,
// sign proofs, dependence pairs) is printed to stderr alongside.
//
// -emit transpiles each analyzed file to a runnable parallel Go main
// package under the given directory (one subdirectory per source,
// internal/codegen): plan-chosen loops become chunked goroutine
// dispatch behind the decision's runtime checks and array guards, with
// a serial fallback. Emission is all-or-nothing: if any file's analysis
// failed or produced diagnostics, nothing is emitted, the offending
// files are listed per file on stderr, and the exit status is 1 —
// the same convention batch analysis errors follow.
//
// -engine runs an interpreter smoke on each successfully analyzed file:
// the source is compiled for the named engine (vm, the bytecode VM and
// default interpreter, or tree, the tree-walking oracle) and its
// zero-argument functions are executed under a step budget and
// deadline, so engine typos and code-generation faults fail the file
// like any analysis error. Engine precedence mirrors the interpreter:
// an explicit name selects that engine, the empty string (the default)
// skips the smoke entirely, and inside the interpreter an empty
// Machine.Interp aliases "vm".
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/cminus"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/interp"
	"repro/internal/trace"
	"repro/internal/version"
)

// engineSmoke compiles src for the selected interpreter engine and
// executes its zero-argument functions, bounded by a step budget and a
// deadline so a nonterminating program cannot hang the CLI.
func engineSmoke(src, engine string) error {
	prog, err := cminus.Parse(src)
	if err != nil {
		return err
	}
	m, err := interp.New(prog)
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	m.Interp = engine
	m.Ctx = ctx
	m.Budget = budget.New(ctx, 100_000_000)
	if err := m.Precompile(); err != nil {
		return err
	}
	for _, fn := range prog.Funcs {
		if fn.Body == nil || len(fn.Params) > 0 {
			continue
		}
		if err := m.Call(fn.Name); err != nil {
			return fmt.Errorf("%s: %w", fn.Name, err)
		}
	}
	return nil
}

func main() {
	level := flag.String("level", "new", "analysis level: classical, base or new")
	assume := flag.String("assume", "", "comma-separated symbols assumed >= 1")
	annotate := flag.Bool("annotate", false, "print the OpenMP-annotated source")
	doInline := flag.Bool("inline", false, "perform inline expansion before the analysis")
	jsonOut := flag.Bool("json", false, "print results as JSON (the subsubd /v1/analyze wire format)")
	workers := flag.Int("workers", runtime.GOMAXPROCS(0), "analysis worker pool size (files and passes fan out; output is identical for any value)")
	timeout := flag.Duration("timeout", 0, "per-file analysis deadline (0 = none); a file that exceeds it fails like any other per-file error")
	budgetSteps := flag.Int64("budget", 0, "per-file analysis step budget (0 = unlimited)")
	tracePath := flag.String("trace", "", "write a Chrome trace-event JSON profile of the analysis pipeline to this file")
	engine := flag.String("engine", "", "interpreter smoke: compile each analyzed file for this engine ("+strings.Join(interp.Engines(), ", ")+"; vm is the default interpreter, tree the oracle) and run its zero-argument functions; empty skips")
	emitDir := flag.String("emit", "", "transpile each analyzed file to a runnable parallel Go main package under this directory (refused if any file has analysis errors)")
	incrStats := flag.Bool("incr-stats", false, "run the batch over a function-granular unit store and print per-function hit/miss counts to stderr (duplicate functions across files reuse each other's analyses)")
	showVersion := flag.Bool("version", false, "print the build version and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: subsubcc [flags] file.c [file2.c ...]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if *showVersion {
		fmt.Printf("subsubcc %s\n", version.String())
		return
	}
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}

	if *engine != "" && !slices.Contains(interp.Engines(), *engine) {
		fmt.Fprintf(os.Stderr, "subsubcc: unknown engine %q (available: %s)\n",
			*engine, strings.Join(interp.Engines(), ", "))
		os.Exit(2)
	}

	opt := core.Options{}
	lvl, err := core.ParseLevel(*level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "subsubcc: %v\n", err)
		os.Exit(2)
	}
	opt.Level = lvl
	if *assume != "" {
		opt.AssumePositive = strings.Split(*assume, ",")
	}
	opt.Inline = *doInline
	opt.Workers = *workers
	opt.Timeout = *timeout
	opt.Budget = *budgetSteps
	if *tracePath != "" {
		opt.Trace = trace.NewRecorder()
	}
	var units *incr.Store
	if *incrStats {
		units = incr.NewStore(0)
		opt.Incremental = units
	}

	// Read every file; a read failure claims its result slot without
	// aborting the rest of the batch, mirroring how a parse failure is
	// reported per source.
	results := make([]*core.BatchResult, flag.NArg())
	var sources []core.Source
	var sourceSlot []int
	for i, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			results[i] = &core.BatchResult{Name: path, Err: err}
			continue
		}
		sources = append(sources, core.Source{Name: path, Src: string(src)})
		sourceSlot = append(sourceSlot, i)
	}
	for j, br := range core.AnalyzeBatch(sources, opt) {
		results[sourceSlot[j]] = br
	}

	// Interpreter smoke: an analyzed file that the selected engine cannot
	// compile and run claims its result slot like an analysis failure.
	if *engine != "" {
		for j, src := range sources {
			r := results[sourceSlot[j]]
			if r.Err != nil {
				continue
			}
			if err := engineSmoke(src.Src, *engine); err != nil {
				r.Err = fmt.Errorf("engine smoke (%s): %w", *engine, err)
			}
		}
	}

	if *emitDir != "" {
		if err := emitAll(results, *emitDir); err != nil {
			fmt.Fprint(os.Stderr, err.Error())
			os.Exit(1)
		}
	}

	if opt.Trace != nil {
		if err := writeTrace(opt.Trace, *tracePath); err != nil {
			fmt.Fprintf(os.Stderr, "subsubcc: %v\n", err)
			os.Exit(1)
		}
	}

	if units != nil {
		fmt.Fprint(os.Stderr, units.StatsTable())
	}

	if *jsonOut {
		out, err := core.MarshalBatch(results, *annotate)
		if err != nil {
			fmt.Fprintf(os.Stderr, "subsubcc: %v\n", err)
			os.Exit(1)
		}
		os.Stdout.Write(out)
	} else {
		for _, r := range results {
			if len(results) > 1 {
				fmt.Printf("==== %s ====\n", r.Name)
			}
			if r.Err != nil {
				continue
			}
			fmt.Print(r.Res.Summary())
			if *annotate {
				fmt.Println("\n---- annotated source ----")
				fmt.Print(r.Res.AnnotatedSource())
			}
		}
	}

	var failed []*core.BatchResult
	for _, r := range results {
		if r.Err != nil {
			failed = append(failed, r)
		}
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "subsubcc: %d of %d files failed:\n", len(failed), len(results))
		for _, r := range failed {
			fmt.Fprintf(os.Stderr, "  %s: %v\n", r.Name, r.Err)
		}
		os.Exit(1)
	}
}

// emitAll transpiles every analyzed result into a Go main package under
// dir, one subdirectory per source file. It refuses the whole batch when
// any file's analysis failed or produced diagnostics — generated code
// from a degraded plan would silently serialize loops the user expects
// parallel — listing the offending files like any batch failure.
func emitAll(results []*core.BatchResult, dir string) error {
	var bad []string
	for _, r := range results {
		switch {
		case r.Err != nil:
			bad = append(bad, fmt.Sprintf("  %s: %v", r.Name, r.Err))
		case len(r.Res.Plan.Diagnostics) > 0:
			for _, d := range r.Res.Plan.Diagnostics {
				bad = append(bad, fmt.Sprintf("  %s: %s", r.Name, d.Message()))
			}
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("subsubcc: -emit refused, %d of %d files have analysis errors:\n%s\n",
			len(bad), len(results), strings.Join(bad, "\n"))
	}
	used := map[string]bool{}
	for _, r := range results {
		leaf := emitLeaf(r.Name)
		for used[leaf] {
			leaf += "_"
		}
		used[leaf] = true
		pkg, err := codegen.EmitPackage(r.Res.Plan, "subsubgen/"+leaf)
		if err != nil {
			return fmt.Errorf("subsubcc: emit %s: %v\n", r.Name, err)
		}
		out := filepath.Join(dir, leaf)
		if err := pkg.WritePackage(out); err != nil {
			return fmt.Errorf("subsubcc: emit %s: %v\n", r.Name, err)
		}
		fmt.Printf("emitted %s -> %s\n", r.Name, out)
	}
	return nil
}

// emitLeaf derives a directory/module leaf from a source path: the base
// name without extension, lowered, with non-alphanumerics collapsed to
// dashes.
func emitLeaf(path string) string {
	base := filepath.Base(path)
	base = strings.TrimSuffix(base, filepath.Ext(base))
	var b strings.Builder
	for _, r := range strings.ToLower(base) {
		if (r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') {
			b.WriteRune(r)
		} else {
			b.WriteRune('-')
		}
	}
	leaf := strings.Trim(b.String(), "-")
	if leaf == "" {
		leaf = "kernel"
	}
	return leaf
}

// writeTrace validates and writes the recorded pipeline spans as Chrome
// trace-event JSON, and prints the per-stage aggregate table to stderr.
func writeTrace(tr *trace.Recorder, path string) error {
	spans := tr.Spans()
	data, err := trace.MarshalChrome(spans, "subsubcc")
	if err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	if err := trace.ValidateChrome(data); err != nil {
		return fmt.Errorf("trace: generated profile failed validation: %v", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %v", err)
	}
	fmt.Fprintf(os.Stderr, "trace: %d spans written to %s", len(spans), path)
	if d := tr.Dropped(); d > 0 {
		fmt.Fprintf(os.Stderr, " (%d dropped at the recorder cap)", d)
	}
	fmt.Fprintln(os.Stderr)
	fmt.Fprint(os.Stderr, trace.Table(trace.Aggregate(spans)))
	return nil
}
