package cfg

import (
	"testing"

	"repro/internal/cminus"
	"repro/internal/normalize"
)

func loopBody(t *testing.T, src, fname string) *cminus.Block {
	t.Helper()
	prog := cminus.MustParse(src)
	res := normalize.Func(prog.Func(fname))
	var loop *cminus.ForStmt
	cminus.WalkStmts(res.Func.Body, func(s cminus.Stmt) bool {
		if f, ok := s.(*cminus.ForStmt); ok && loop == nil {
			loop = f
			return false
		}
		return true
	})
	if loop == nil {
		t.Fatal("no loop")
	}
	return loop.Body
}

// TestFig5Shape checks the CFG of the paper's Figure 5: the normalized
// Figure 4(b) loop body is branch -> (temp save; incr; store) -> merge.
func TestFig5Shape(t *testing.T) {
	src := `
void f(int npts, double *xdos, double t, double width, int *ind) {
    int m = 0;
    int j;
    for (j = 0; j < npts; j++) {
        if ((xdos[j] - t) < width)
            ind[m++] = j;
    }
}
`
	g, err := Build(loopBody(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []NodeKind
	for _, n := range g.Nodes {
		kinds = append(kinds, n.Kind)
	}
	// entry, branch, decl(_temp_0), _temp_0=m, m=m+1, ind[_temp_0]=j, merge, exit
	want := []NodeKind{NEntry, NBranch, NStmt, NStmt, NStmt, NStmt, NMerge, NExit}
	if len(kinds) != len(want) {
		t.Fatalf("got %d nodes (%v), want %d\n%s", len(kinds), kinds, len(want), g)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("node %d: %s, want %s\n%s", i, kinds[i], want[i], g)
		}
	}
	// The branch's false edge must go straight to the merge.
	br := g.Nodes[1]
	var falseTo *Node
	for _, e := range br.Succs {
		if e.Cond == EdgeFalse {
			falseTo = e.To
		}
	}
	if falseTo == nil || falseTo.Kind != NMerge {
		t.Fatalf("false edge should reach merge\n%s", g)
	}
}

// TestTopoOrderIsForward: g.Nodes, the order Phase 1 walks, is
// topological — every edge points to a later node.
func TestTopoOrderIsForward(t *testing.T) {
	src := `
void f(int n, int *a, int *b) {
    int i, x;
    for (i = 0; i < n; i++) {
        x = a[i];
        if (x > 0) {
            b[i] = x;
        } else {
            if (x < -10) {
                b[i] = -x;
            }
            b[i] = 0;
        }
        a[i] = b[i];
    }
}
`
	g, err := Build(loopBody(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range g.Nodes {
		for _, e := range n.Succs {
			if e.To.ID <= n.ID {
				t.Fatalf("edge %d->%d is not forward\n%s", n.ID, e.To.ID, g)
			}
		}
	}
	if g.Entry.ID != 0 || g.Exit.ID != len(g.Nodes)-1 {
		t.Error("entry/exit placement")
	}
}

func TestInnerLoopCollapses(t *testing.T) {
	src := `
void f(int n, int m, int *a) {
    int i, j, p;
    p = 0;
    for (i = 0; i < n; i++) {
        a[i] = p;
        for (j = 0; j < m; j++) {
            if (a[j] > 0) {
                p = p + 1;
            }
        }
    }
}
`
	g, err := Build(loopBody(t, src, "f"))
	if err != nil {
		t.Fatal(err)
	}
	var loops int
	for _, n := range g.Nodes {
		if n.Kind == NLoop {
			loops++
		}
	}
	if loops != 1 {
		t.Fatalf("inner loop should be one collapsed node, got %d\n%s", loops, g)
	}
}

func TestBreakRejected(t *testing.T) {
	blk := &cminus.Block{Stmts: []cminus.Stmt{&cminus.BreakStmt{}}}
	if _, err := Build(blk); err == nil {
		t.Error("break should be rejected")
	}
	blk2 := &cminus.Block{Stmts: []cminus.Stmt{&cminus.ContinueStmt{}}}
	if _, err := Build(blk2); err == nil {
		t.Error("continue should be rejected")
	}
}
