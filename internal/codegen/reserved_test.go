package codegen

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path"
	"strconv"
	"strings"
	"testing"

	"repro/internal/guard"
	"repro/internal/sched"
)

// TestGenReservedCoversEmittedFiles: every package-level name the files
// copied into an emitted module declare or import is reserved, so a
// mini-C name never clashes with it. The rt-prefixed names are reserved
// by their prefix.
func TestGenReservedCoversEmittedFiles(t *testing.T) {
	for _, f := range []struct{ name, src string }{
		{"runtime file", runtimeSrc},
		{"guard.go", guard.Source},
		{"loop.go", sched.LoopSource},
	} {
		file, err := parser.ParseFile(token.NewFileSet(), f.name, f.src, 0)
		if err != nil {
			t.Fatalf("%s: %v", f.name, err)
		}
		var names []string
		for _, imp := range file.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("%s: import %s: %v", f.name, imp.Path.Value, err)
			}
			name := path.Base(p)
			if imp.Name != nil {
				name = imp.Name.Name
			}
			names = append(names, name)
		}
		for _, d := range file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names = append(names, d.Name.Name)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						names = append(names, s.Name.Name)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							names = append(names, id.Name)
						}
					}
				}
			}
		}
		for _, name := range names {
			if name != "_" && !genReserved[name] && !strings.HasPrefix(name, "rt") {
				t.Errorf("%s declares or imports %q, which genReserved lacks", f.name, name)
			}
		}
	}
}
