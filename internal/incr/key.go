package incr

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"

	"repro/internal/cminus"
	"repro/internal/phase2"
)

// keyVersion namespaces unit keys; bump it whenever any analysis stage's
// semantics change so stale units from an older binary can never replay.
const keyVersion = "subsub/incr/v1"

// writeField writes a length-prefixed field so concatenations are
// unambiguous ("ab"+"c" never collides with "a"+"bc").
func writeField(h hash.Hash, s string) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
	h.Write(n[:])
	h.Write([]byte(s))
}

// OptionsDigest canonicalizes the analysis options that affect
// per-function results: the capability level, the assume ranges (sorted
// and deduplicated, so equivalent spellings share a digest), and
// whether inline expansion ran. Worker counts, budgets, deadlines and
// tracing are excluded — they never change the result bytes.
func OptionsDigest(level phase2.Level, assume []string, inline bool) string {
	as := append([]string(nil), assume...)
	sort.Strings(as)
	as = dedupe(as)
	h := sha256.New()
	writeField(h, "opts")
	writeField(h, fmt.Sprintf("%d", int(level)))
	for _, a := range as {
		writeField(h, a)
	}
	writeField(h, fmt.Sprintf("inline=%t", inline))
	return hex.EncodeToString(h.Sum(nil))
}

func dedupe(sorted []string) []string {
	out := sorted[:0]
	for i, s := range sorted {
		if i == 0 || s != sorted[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// UnitKeys computes the content-addressed unit key of every function in
// a (post-inline) program. The key covers everything a function's
// Pass-1 result can depend on:
//
//   - the options digest and the globals (globals can carry
//     initializers the analysis reads);
//   - the function's canonical print — the parser-independent
//     rendering, which includes its name (two same-bodied functions
//     must not alias: plans carry the function name) but no positions;
//   - the function's actual loop-label sequence. Labels ("L1", "L2",
//     ...) are assigned positionally across the whole translation unit,
//     so adding or removing a loop in an earlier function shifts every
//     later function's labels; hashing the real sequence makes such
//     shifts an automatic cache miss, which is what keeps incremental
//     output byte-identical to a cold run (decisions and pragmas embed
//     labels). Inline expansion's "_inl<n>" suffixes are program-global
//     the same way and are captured by the same walk.
//   - the transitive callee closure: the sorted (name, own-content
//     digest) pairs of every function reachable through calls, so
//     editing a callee invalidates every transitive caller (inlining
//     and property propagation make callee bodies part of the caller's
//     analysis input).
//
// Functions without a body (extern declarations) get no key.
func UnitKeys(prog *cminus.Program, optDigest string) map[string]string {
	globals := globalsDigest(prog)

	type funcInfo struct {
		fn      *cminus.FuncDecl
		content string   // digest of canonical print + label sequence
		callees []string // direct callee names that resolve to bodies
	}
	infos := map[string]*funcInfo{}
	for _, fn := range prog.Funcs {
		if fn.Body == nil {
			continue
		}
		infos[fn.Name] = &funcInfo{fn: fn, content: contentDigest(fn)}
	}
	for _, fi := range infos {
		for _, callee := range directCallees(fi.fn) {
			if _, ok := infos[callee]; ok && callee != fi.fn.Name {
				fi.callees = append(fi.callees, callee)
			}
		}
		sort.Strings(fi.callees)
	}

	// Transitive closure over the call graph (cycles are fine: the
	// closure of a cycle member includes the whole cycle, so any edit
	// inside the cycle invalidates every member).
	closures := map[string]map[string]bool{}
	var reach func(name string) map[string]bool
	reach = func(name string) map[string]bool {
		if c, ok := closures[name]; ok {
			return c
		}
		c := map[string]bool{}
		closures[name] = c // placeholder breaks cycles
		for _, callee := range infos[name].callees {
			if c[callee] {
				continue
			}
			c[callee] = true
			for n := range reach(callee) {
				c[n] = true
			}
		}
		return c
	}

	keys := make(map[string]string, len(infos))
	for name, fi := range infos {
		h := sha256.New()
		writeField(h, keyVersion)
		writeField(h, optDigest)
		writeField(h, globals)
		writeField(h, fi.content)
		reachable := make([]string, 0, len(reach(name)))
		for n := range reach(name) {
			reachable = append(reachable, n)
		}
		sort.Strings(reachable)
		for _, n := range reachable {
			writeField(h, n)
			writeField(h, infos[n].content)
		}
		keys[name] = hex.EncodeToString(h.Sum(nil))
	}
	return keys
}

// contentDigest hashes one function's own content: canonical print plus
// the actual loop-label sequence (the print deliberately omits labels).
func contentDigest(fn *cminus.FuncDecl) string {
	h := sha256.New()
	writeField(h, cminus.Print(&cminus.Program{Funcs: []*cminus.FuncDecl{fn}}))
	cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
		if loop, ok := s.(*cminus.ForStmt); ok {
			writeField(h, loop.Label)
		}
		return true
	})
	return hex.EncodeToString(h.Sum(nil))
}

// globalsDigest hashes the program's global declarations.
func globalsDigest(prog *cminus.Program) string {
	if len(prog.Globals) == 0 {
		return ""
	}
	h := sha256.New()
	writeField(h, cminus.Print(&cminus.Program{Globals: prog.Globals}))
	return hex.EncodeToString(h.Sum(nil))
}

// directCallees returns the names called anywhere in fn's body
// (deduplicated, unordered).
func directCallees(fn *cminus.FuncDecl) []string {
	seen := map[string]bool{}
	cminus.WalkStmts(fn.Body, func(s cminus.Stmt) bool {
		cminus.StmtExprs(s, func(e cminus.Expr) bool {
			if call, ok := e.(*cminus.CallExpr); ok {
				seen[call.Fun] = true
			}
			return true
		})
		return true
	})
	out := make([]string, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	return out
}
