package codegen

import (
	"bytes"
	"flag"
	"go/format"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/phase2"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenKernels pins a representative slice of the corpus: the paper's
// flagship monotone-guard kernel, a plain affine kernel, and a scatter
// kernel with an injectivity guard.
var goldenKernels = []string{"AMGmk", "CG", "Scatter-Identity"}

// TestGoldenEmit locks the emitted program source byte for byte. The
// emitter has no dependence on worker counts or any ambient state, so
// two emissions of the same plan must agree exactly, and both must
// match the checked-in golden file (refresh with -update).
func TestGoldenEmit(t *testing.T) {
	for _, name := range goldenKernels {
		name := name
		t.Run(name, func(t *testing.T) {
			b := corpus.ByName(name)
			if b == nil {
				t.Fatalf("unknown benchmark %q", name)
			}
			emit := func() []byte {
				plan := corpus.PlanFor(b, phase2.LevelNew)
				pkg, err := EmitPackage(plan, "subsubgen/"+sanitizeModule(name))
				if err != nil {
					t.Fatalf("emit: %v", err)
				}
				return pkg.ProgGo
			}
			first, second := emit(), emit()
			if !bytes.Equal(first, second) {
				t.Fatal("two emissions of the same plan differ")
			}

			formatted, err := format.Source(first)
			if err != nil {
				t.Fatalf("emitted source does not parse: %v", err)
			}
			if !bytes.Equal(formatted, first) {
				t.Error("emitted source is not gofmt-clean")
			}

			golden := filepath.Join("testdata", "golden", sanitizeModule(name)+".prog.go.golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, first, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(first, want) {
				t.Errorf("emitted source differs from %s (re-run with -update after intended changes)", golden)
			}
		})
	}
}

// TestEmitAllKernels emits every corpus kernel (no builds) and asserts
// the output is gofmt-clean, the guard file internal/guard's guard.go
// and the loop file internal/sched's loop.go, each byte for byte apart
// from its package clause — the cheap always-on sanity companion to the
// slow differential gate.
func TestEmitAllKernels(t *testing.T) {
	guardSrc, err := os.ReadFile(filepath.Join("..", "guard", "guard.go"))
	if err != nil {
		t.Fatal(err)
	}
	loopSrc, err := os.ReadFile(filepath.Join("..", "sched", "loop.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range corpus.Extended() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			plan := corpus.PlanFor(b, phase2.LevelNew)
			pkg, err := EmitPackage(plan, "subsubgen/"+sanitizeModule(b.Name))
			if err != nil {
				t.Fatalf("emit: %v", err)
			}
			for _, f := range []struct {
				name string
				src  []byte
			}{{"prog.go", pkg.ProgGo}, {"subsubrt.go", pkg.RuntimeGo}, {"guard.go", pkg.GuardGo}, {"loop.go", pkg.LoopGo}} {
				formatted, err := format.Source(f.src)
				if err != nil {
					t.Fatalf("%s does not parse: %v", f.name, err)
				}
				if !bytes.Equal(formatted, f.src) {
					t.Errorf("%s is not gofmt-clean", f.name)
				}
			}
			for _, f := range []struct {
				name, pkgName string
				emitted, src  []byte
			}{{"guard.go", "guard", pkg.GuardGo, guardSrc}, {"loop.go", "sched", pkg.LoopGo, loopSrc}} {
				clause := []byte("package main\n")
				if !bytes.HasPrefix(f.emitted, clause) ||
					!bytes.Equal(bytes.Replace(f.emitted, clause, []byte("package "+f.pkgName+"\n"), 1), f.src) {
					t.Errorf("%s differs from internal/%s/%s beyond its package clause", f.name, f.pkgName, f.name)
				}
			}
			if bytes.Contains(pkg.ProgGo, []byte("sync.WaitGroup")) || bytes.Contains(pkg.ProgGo, []byte("go func")) {
				t.Error("prog.go fans out by itself instead of calling ParallelLoop")
			}
		})
	}
}
