package cfg

import (
	"strings"
	"testing"

	"repro/internal/cminus"
)

func TestStringRendering(t *testing.T) {
	prog := cminus.MustParse(`
void f(int n, int *a) {
    int i;
    for (i = 0; i < n; i++) {
        if (a[i] > 0) {
            a[i] = 0;
        }
    }
}
`)
	var loop *cminus.ForStmt
	cminus.WalkStmts(prog.Funcs[0].Body, func(s cminus.Stmt) bool {
		if f, ok := s.(*cminus.ForStmt); ok {
			loop = f
		}
		return true
	})
	g, err := Build(loop.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := g.String()
	for _, want := range []string{"entry", "branch [if a[i] > 0]", "(T)", "(F)", "exit"} {
		if !strings.Contains(out, want) {
			t.Errorf("CFG rendering missing %q:\n%s", want, out)
		}
	}
	if g.Nodes[0] != g.Entry {
		t.Error("node order starts at entry")
	}
}

func TestElseIfChain(t *testing.T) {
	prog := cminus.MustParse(`
void f(int x, int *a) {
    if (x > 10) {
        a[0] = 1;
    } else if (x > 5) {
        a[0] = 2;
    } else {
        a[0] = 3;
    }
}
`)
	g, err := Build(prog.Funcs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	branches, merges := 0, 0
	for _, n := range g.Nodes {
		switch n.Kind {
		case NBranch:
			branches++
		case NMerge:
			merges++
		}
	}
	if branches != 2 || merges != 2 {
		t.Errorf("branches=%d merges=%d\n%s", branches, merges, g)
	}
}

func TestReturnRejected(t *testing.T) {
	blk := &cminus.Block{Stmts: []cminus.Stmt{&cminus.ReturnStmt{}}}
	if _, err := Build(blk); err == nil {
		t.Error("return should be rejected")
	}
}

func TestWhileCollapsesToNode(t *testing.T) {
	prog := cminus.MustParse(`
void f(int n, int *a) {
    int i;
    i = 0;
    while (i < n) {
        i = i + 1;
    }
    a[0] = i;
}
`)
	g, err := Build(prog.Funcs[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	loops := 0
	for _, n := range g.Nodes {
		if n.Kind == NLoop {
			loops++
		}
	}
	if loops != 1 {
		t.Errorf("while should be one collapsed node:\n%s", g)
	}
}

func TestKindStrings(t *testing.T) {
	for k, want := range map[NodeKind]string{
		NEntry: "entry", NExit: "exit", NStmt: "stmt",
		NBranch: "branch", NMerge: "merge", NLoop: "loop",
	} {
		if k.String() != want {
			t.Errorf("%d: %s", k, k.String())
		}
	}
}
