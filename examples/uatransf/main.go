// UA(transf): multi-dimensional subscript arrays (paper Section 3.3).
// Shows the Phase-1/Phase-2 internals for the Figure 12 loop nest — the
// per-loop SVDs and aggregates the paper prints — and the resulting
// parallelization, validated by execution.
package main

import (
	"fmt"
	"log"
	"os"
	"sort"

	"repro/internal/cminus"
	"repro/internal/corpus"
	"repro/internal/phase2"

	"repro"
)

func main() {
	b := corpus.UATransf
	prog := cminus.MustParse(b.Source)

	// The internal view: Phase-1 SVDs and Phase-2 aggregates per loop of
	// the filling nest (what the paper's Section 3.3 walks through).
	fa := phase2.AnalyzeFunc(prog.Func("ua_fill"), phase2.LevelNew, nil)
	labels := make([]string, 0, len(fa.Loops))
	for lbl := range fa.Loops {
		labels = append(labels, lbl)
	}
	sort.Strings(labels)
	for _, lbl := range labels {
		agg := fa.Loops[lbl]
		fmt.Printf("loop %s Phase-1 SVD:\n  %s\n", lbl, agg.SVD)
		if w, ok := agg.Collapsed.Arrays["idel"]; ok && len(w) > 0 {
			fmt.Printf("loop %s Phase-2 aggregate for idel:\n  idel%s\n", lbl, w[0])
		}
		for _, p := range agg.Props {
			fmt.Printf("loop %s property: %s\n", lbl, p)
		}
		fmt.Println()
	}

	// The end-to-end result.
	res, err := subsub.Analyze(b.Source, subsub.Options{Level: subsub.New})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("-- parallelization --")
	fmt.Print(res.Summary())

	// Validate: run ua_fill then ua_transf serially vs 4 workers.
	lelt := int64(200)
	idel := subsub.NewIntArray("idel", lelt, 6, 5, 5)
	m, err := res.NewMachine(1)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Call("ua_fill", lelt, idel); err != nil {
		log.Fatal(err)
	}
	tx := subsub.NewFloatArray("tx", 125*lelt)
	tmort := subsub.NewFloatArray("tmort", 150*lelt)
	for i := range tmort.Flts {
		tmort.Flts[i] = float64(i%17) * 0.21
	}
	worst, err := res.Verify("ua_transf", 4,
		[]subsub.Arg{lelt, idel, tx, tmort}, []string{"tx"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverification over %d elements: parallel-vs-serial max diff = %g\n", lelt, worst)
	if worst != 0 {
		os.Exit(1)
	}
}
