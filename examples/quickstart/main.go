// Quickstart: analyze the paper's running example (Figures 1 and 4 — the
// EVSL loop) and print the discovered subscript-array property, the
// per-loop decisions, and the OpenMP-annotated source.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
)

const src = `
// The loop that fills the index array (paper Figure 4a).
void fill(int npts, double *xdos, double t, double width, int *ind, int *count) {
    int m = 0;
    int j;
    for (j = 0; j < npts; j++) {
        if ((xdos[j] - t) < width)
            ind[m++] = j;
    }
    count[0] = m;
}

// The subscripted-subscript loop to parallelize (paper Figure 1).
void apply(int numPlaced, int m_max, int *ind, double *xdos, double *y,
           double gamma2, double t, double sigma2) {
    int j;
    for (j = 0; j < numPlaced; j++) {
        y[ind[j]] = y[ind[j]] + gamma2 * exp(-((xdos[ind[j]] - t) * (xdos[ind[j]] - t)) / sigma2);
    }
}
`

func main() {
	fmt.Println("== New algorithm (this paper) ==")
	res, err := subsub.Analyze(src, subsub.Options{Level: subsub.New})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(res.Summary())
	fmt.Println("\n-- annotated source --")
	fmt.Print(res.AnnotatedSource())

	fmt.Println("\n== Classical analysis (for comparison) ==")
	resC, err := subsub.Analyze(src, subsub.Options{Level: subsub.Classical})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(resC.Summary())

	// Prove the plan sound on real data: fill the index array, then run
	// the apply loop serially and with 4 workers and compare.
	n := int64(10000)
	xdos := subsub.NewFloatArray("xdos", n)
	for i := int64(0); i < n; i++ {
		xdos.Flts[i] = float64(i%211) * 0.013
	}
	ind := subsub.NewIntArray("ind", n)
	count := subsub.NewIntArray("count", 1)
	m, err := res.NewMachine(1)
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Call("fill", n, xdos, 0.9, 1.7, ind, count); err != nil {
		log.Fatal(err)
	}
	placed := count.Ints[0]
	y := subsub.NewFloatArray("y", n)
	worst, err := res.Verify("apply", 4,
		[]subsub.Arg{placed, placed, ind, xdos, y, 0.25, 0.9, 2.0},
		[]string{"y"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nverification: %d intermittent writes, parallel-vs-serial max diff = %g\n",
		placed, worst)
	if worst != 0 {
		os.Exit(1)
	}
}
