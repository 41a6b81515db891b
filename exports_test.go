package subsub

// Repository hygiene checks that read the source tree instead of running
// it: every exported function and method has a caller outside tests, and
// every test pattern the Makefile gates on selects at least one test.
// Both use only go/parser and go/ast, so they run in plain `go test`.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// modulePath is the import path of the repository root.
const modulePath = "repro"

// callerOnlyDir holds code that calls the module's APIs but is not
// scanned for declarations: the benchmark's own module, which does not
// change with the code it measures.
const callerOnlyDir = "perfbench"

func inCallerOnlyDir(dir string) bool {
	return dir == callerOnlyDir || strings.HasPrefix(dir, callerOnlyDir+"/")
}

// uncalledAllowed names the exported declarations that may have no
// caller outside tests, each with the reason it stays.
var uncalledAllowed = map[string]string{
	"repro/internal/faults.Set":                "failpoint hook: tests arm a site through it",
	"repro/internal/faults.Reset":              "failpoint hook: tests disarm every site through it",
	"repro/internal/faults.Panic":              "failpoint hook: tests arm it to inject a panic",
	"repro/internal/faults.Stall":              "failpoint hook: tests arm it to inject a stall",
	"repro/internal/faults.ExhaustBudget":      "failpoint hook: tests arm it to inject budget exhaustion",
	"repro/internal/faults.Action.For":         "failpoint hook: restricts an armed action to hits with one detail",
	"repro/internal/faults.Action.Times":       "failpoint hook: bounds how often an armed action fires",
	"repro/internal/faults.Action.Forever":     "failpoint hook: makes an armed action fire on every hit",
	"repro/internal/core.Result.ParallelLoops": "public API through subsub.Result, shown in example_test.go",
	"repro/internal/budget.B.Steps":            "the interp tests observe VM step billing through it",
	"repro.AnalyzeBatch":                       "public API of the library, documented in README.md",
	"repro/internal/server.Server.ServeHTTP":   "http.Handler method: net/http calls it through the interface",
	"repro/internal/symbolic.EvalBool":         "concrete evaluator the symbolic, depend and phase2 tests use as an oracle",
	"repro/internal/symbolic.SetCacheEnabled":  "uncached reference: FuzzSimplify, the cache and alloc tests and BenchmarkAnalyzeBatch/cacheoff compare against it",
	"repro/internal/corpus.Adversarial":        "scrambled guard workloads the corpus and codegen differential tests share",
}

// unit is one top-level function or method of a non-test file.
type unit struct {
	importPath, recv, name string
	pos                    token.Position
	// root units are live whatever references them: entry points and
	// the methods a name scan cannot track.
	root bool
	// allowed units are named in uncalledAllowed.
	allowed bool
	// refs are the names the unit's signature and body reference.
	funcRefs, methodRefs []string
}

// exported reports whether the unit is an exported function or an
// exported method of an exported type: the declarations the check covers.
func (u *unit) exported() bool {
	return ast.IsExported(u.name) && (u.recv == "" || ast.IsExported(u.recv))
}

func (u *unit) key() string {
	if u.recv == "" {
		return u.importPath + "." + u.name
	}
	return u.importPath + "." + u.recv + "." + u.name
}

// TestNoUncalledExports fails on any exported function, or exported
// method of an exported type, declared in a non-test file that no live
// non-test code references, unless uncalledAllowed names it. Liveness is
// reachability: code in package-level declarations, main and init
// functions, the perfbench module and allowlisted declarations is live,
// and so is every function a live function references — so a function
// only dead code calls is reported too. A function counts as referenced
// by its name in its own package or by a package-qualified selector in a
// file that imports it; a method by any selector with its name, since
// only type checking could tell receivers apart. Methods of unexported
// types and unexported methods are live from the start: interfaces
// (sort.Interface, fmt.Stringer) reach them, which a name scan cannot
// follow.
func TestNoUncalledExports(t *testing.T) {
	units, rootFuncs, rootMethods := scanUnits(t, ".")
	// An allowlisted declaration that is live without the allowlist has
	// gained a caller, so its entry is stale.
	needsAllow := live(units, rootFuncs, rootMethods, false)
	isLive := live(units, rootFuncs, rootMethods, true)

	seen := map[string]bool{}
	var dead []string
	for _, u := range units {
		if !u.exported() {
			continue
		}
		seen[u.key()] = true
		switch {
		case u.allowed && needsAllow[u]:
			t.Errorf("%s has a non-test caller; drop its uncalledAllowed entry", u.key())
		case !isLive[u]:
			dead = append(dead, u.pos.Filename+":"+strconv.Itoa(u.pos.Line)+": "+u.key())
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but never called outside tests: %s", d)
	}
	for k := range uncalledAllowed {
		if !seen[k] {
			t.Errorf("uncalledAllowed entry %s names no exported declaration", k)
		}
	}
}

// live returns the units reachable from the root references and the root
// units (with the allowlisted ones among them if allow is set).
func live(units []*unit, rootFuncs, rootMethods []string, allow bool) map[*unit]bool {
	funcLive := map[string]bool{}
	methodLive := map[string]bool{}
	for _, r := range rootFuncs {
		funcLive[r] = true
	}
	for _, r := range rootMethods {
		methodLive[r] = true
	}
	out := map[*unit]bool{}
	for changed := true; changed; {
		changed = false
		for _, u := range units {
			if out[u] {
				continue
			}
			if u.root || (allow && u.allowed) || (u.recv == "" && funcLive[u.importPath+"."+u.name]) || (u.recv != "" && methodLive[u.name]) {
				out[u], changed = true, true
				for _, r := range u.funcRefs {
					funcLive[r] = true
				}
				for _, r := range u.methodRefs {
					methodLive[r] = true
				}
			}
		}
	}
	return out
}

// scanUnits parses every non-test Go file under root and returns its
// top-level functions, plus the function and method names that code
// outside any function (package-level declarations, the caller-only
// module) references.
func scanUnits(t *testing.T, root string) (units []*unit, rootFuncs, rootMethods []string) {
	t.Helper()
	fset := token.NewFileSet()
	type parsed struct {
		dir  string // slash-separated, relative to root
		file *ast.File
	}
	var files []parsed
	pkgName := map[string]string{} // dir -> package name
	walkGoFiles(t, root, false, func(dir, path string) {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, parsed{dir, f})
		pkgName[dir] = f.Name.Name
	})

	for _, f := range files {
		importPath := modulePath
		if f.dir != "." {
			importPath += "/" + f.dir
		}
		imports := map[string]string{} // local name -> import path
		for _, is := range f.file.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
				continue
			}
			dir := "."
			if path != modulePath {
				dir = strings.TrimPrefix(path, modulePath+"/")
			}
			local := pkgName[dir]
			if is.Name != nil {
				local = is.Name.Name
			}
			imports[local] = path
		}
		for _, d := range f.file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || inCallerOnlyDir(f.dir) {
				fr, mr := collectRefs(d, importPath, imports)
				rootFuncs = append(rootFuncs, fr...)
				rootMethods = append(rootMethods, mr...)
				continue
			}
			u := &unit{importPath: importPath, name: fd.Name.Name, pos: fset.Position(fd.Pos())}
			if fd.Recv != nil {
				u.recv = recvTypeName(fd.Recv)
				u.root = !ast.IsExported(u.recv) || !ast.IsExported(u.name)
			} else {
				u.root = u.name == "main" || u.name == "init"
			}
			_, u.allowed = uncalledAllowed[u.key()]
			// The function's own name is not a reference: only its
			// receiver, signature and body are scanned.
			parts := []ast.Node{fd.Type}
			if fd.Recv != nil {
				parts = append(parts, fd.Recv)
			}
			if fd.Body != nil {
				parts = append(parts, fd.Body)
			}
			for _, part := range parts {
				fr, mr := collectRefs(part, importPath, imports)
				u.funcRefs = append(u.funcRefs, fr...)
				u.methodRefs = append(u.methodRefs, mr...)
			}
			units = append(units, u)
		}
	}
	return units, rootFuncs, rootMethods
}

// collectRefs returns the functions (as "importpath.Name") and methods
// (as bare names) that n references.
func collectRefs(n ast.Node, importPath string, imports map[string]string) (funcs, methods []string) {
	ast.Inspect(n, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			methods = append(methods, x.Sel.Name)
			if id, ok := x.X.(*ast.Ident); ok {
				if pkg, ok := imports[id.Name]; ok {
					funcs = append(funcs, pkg+"."+x.Sel.Name)
					return false
				}
			}
			fr, mr := collectRefs(x.X, importPath, imports)
			funcs, methods = append(funcs, fr...), append(methods, mr...)
			return false
		case *ast.Ident:
			funcs = append(funcs, importPath+"."+x.Name)
		}
		return true
	})
	return funcs, methods
}

// recvTypeName returns the base type name of a method receiver.
func recvTypeName(recv *ast.FieldList) string {
	typ := recv.List[0].Type
	for {
		switch x := typ.(type) {
		case *ast.StarExpr:
			typ = x.X
		case *ast.IndexExpr:
			typ = x.X
		case *ast.IndexListExpr:
			typ = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// walkGoFiles calls fn for every Go file under root that is a test file
// (tests true) or a non-test file (tests false), skipping hidden
// directories and testdata. dir is the file's directory relative to root.
func walkGoFiles(t *testing.T, root string, tests bool, fn func(dir, path string)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") != tests {
			return nil
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		fn(filepath.ToSlash(rel), path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMakefileTestPatterns fails when a `go test` pattern in the Makefile
// selects nothing: every |-alternative of a -run pattern must match a
// Test or Fuzz function, of a -fuzz pattern a Fuzz function and of a
// -bench pattern a Benchmark function, in the packages the command
// names. The run-nothing patterns ^$ and NONE are exempt.
func TestMakefileTestPatterns(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}

	// Top-level test functions per package directory.
	fset := token.NewFileSet()
	testFuncs := map[string][]string{}
	walkGoFiles(t, ".", true, func(dir, path string) {
		if inCallerOnlyDir(dir) {
			return // its own module: ./... does not reach it
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				testFuncs[dir] = append(testFuncs[dir], fd.Name.Name)
			}
		}
	})

	text := strings.ReplaceAll(strings.ReplaceAll(string(data), "\\\n", " "), "$$", "$")
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "$(GO) test ") {
			continue
		}
		args := shellFields(line[strings.Index(line, "$(GO) test "):])
		var dirs []string
		patterns := map[string]string{} // flag -> pattern
		for i, a := range args {
			switch {
			case (a == "-run" || a == "-fuzz" || a == "-bench") && i+1 < len(args):
				patterns[a] = args[i+1]
			case a == "./...":
				for dir := range testFuncs {
					dirs = append(dirs, dir)
				}
			case strings.HasPrefix(a, "./"):
				dirs = append(dirs, strings.TrimSuffix(strings.TrimPrefix(a, "./"), "/"))
			}
		}
		var names []string
		for _, dir := range dirs {
			names = append(names, testFuncs[dir]...)
		}
		for flag, pattern := range patterns {
			if flag == "-run" && (pattern == "^$" || pattern == "NONE") {
				continue
			}
			prefixes := map[string][]string{
				"-run":   {"Test", "Fuzz"},
				"-fuzz":  {"Fuzz"},
				"-bench": {"Benchmark"},
			}[flag]
			for _, alt := range splitAlternatives(pattern) {
				checked++
				re, err := regexp.Compile(strings.SplitN(alt, "/", 2)[0])
				if err != nil {
					t.Errorf("Makefile: %s %q: %v", flag, pattern, err)
					continue
				}
				if !matchesAny(re, names, prefixes) {
					t.Errorf("Makefile: %s alternative %q of %q matches no %s function in %v",
						flag, alt, pattern, strings.Join(prefixes, " or "), dirs)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no go test patterns found in the Makefile")
	}
}

func matchesAny(re *regexp.Regexp, names, prefixes []string) bool {
	for _, n := range names {
		for _, p := range prefixes {
			if strings.HasPrefix(n, p) && re.MatchString(n) {
				return true
			}
		}
	}
	return false
}

// shellFields splits a command line on blanks, honouring single quotes.
func shellFields(s string) []string {
	var out []string
	var cur strings.Builder
	inQuote, inField := false, false
	for _, r := range s {
		switch {
		case r == '\'':
			inQuote, inField = !inQuote, true
		case !inQuote && (r == ' ' || r == '\t'):
			if inField {
				out = append(out, cur.String())
				cur.Reset()
				inField = false
			}
		default:
			cur.WriteRune(r)
			inField = true
		}
	}
	if inField {
		out = append(out, cur.String())
	}
	return out
}

// splitAlternatives splits a regexp on the | operators outside
// parentheses.
func splitAlternatives(pattern string) []string {
	var out []string
	depth, start := 0, 0
	for i, r := range pattern {
		switch r {
		case '(':
			depth++
		case ')':
			depth--
		case '|':
			if depth == 0 {
				out = append(out, pattern[start:i])
				start = i + 1
			}
		}
	}
	return append(out, pattern[start:])
}
