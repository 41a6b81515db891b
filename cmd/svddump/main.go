// Command svddump prints the Phase-1 Symbolic Value Dictionaries and the
// Phase-2 aggregates for every eligible loop of a mini-C source file —
// the internal view of the analysis (what the paper's Figure 5 and the
// Phase-2 printouts of Section 3 show).
//
// Usage:
//
//	svddump [-level classical|base|new] [-assume sym1,sym2] [-func name] file.c
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/cminus"
	"repro/internal/core"
	"repro/internal/phase2"
	"repro/internal/ranges"
	"repro/internal/symbolic"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, writes the dump to stdout and
// returns the exit status (2 for a usage error, 1 for a bad file).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("svddump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	level := fs.String("level", "new", "analysis level: classical, base or new")
	assume := fs.String("assume", "", "comma-separated symbols assumed >= 1")
	fnName := fs.String("func", "", "restrict to one function")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	lvl, err := core.ParseLevel(*level)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: svddump [flags] file.c")
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	prog, err := cminus.Parse(string(src))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	// Each assumed symbol is >= 1, as in subsubcc; each function is
	// analyzed in a scope of its own over these bindings, as in
	// parallelize.Run.
	assumed := ranges.New()
	if *assume != "" {
		for _, sym := range strings.Split(*assume, ",") {
			assumed.Set(sym, symbolic.One, nil)
		}
	}
	for _, fn := range prog.Funcs {
		if fn.Body == nil || (*fnName != "" && fn.Name != *fnName) {
			continue
		}
		fa := phase2.AnalyzeFunc(fn, lvl, assumed.Push())
		fmt.Fprintf(stdout, "== function %s ==\n", fn.Name)
		for _, lbl := range sortedKeys(fa.Loops) {
			agg := fa.Loops[lbl]
			fmt.Fprintf(stdout, "\nloop %s:\n", lbl)
			fmt.Fprintf(stdout, "  Phase-1 SVD: %s\n", agg.SVD)
			fmt.Fprintf(stdout, "  Phase-2 aggregates:\n")
			for _, v := range sortedKeys(agg.Aggregated) {
				fmt.Fprintf(stdout, "    %s = %s\n", v, agg.Aggregated[v])
			}
			if len(agg.SSR) > 0 {
				fmt.Fprintf(stdout, "  SSR variables: %v\n", sortedKeys(agg.SSR))
			}
			for _, p := range agg.Props {
				fmt.Fprintf(stdout, "  property: %s\n", p)
			}
		}
		for _, lbl := range sortedKeys(fa.Failures) {
			fmt.Fprintf(stdout, "\nloop %s: analysis failed: %s\n", lbl, fa.Failures[lbl])
		}
		fmt.Fprintf(stdout, "\nfinal properties:\n%s\n", fa.Props)
	}
	return 0
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
