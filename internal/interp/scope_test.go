package interp

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/cminus"
	"repro/internal/parallelize"
	"repro/internal/phase2"
)

// scopeRow is one program of the scope agreement table
// (testdata/scope/NAME.c). Its entry function NAME(int n, double *out)
// runs with n = 7 and a zeroed 4-element out. want is out's end state
// under C's scope and conversion rules, written by hand in the file's
// "// want:" line; err is the diagnostic of a row C would reject, from
// its "// error:" line.
type scopeRow struct {
	name, src string
	want      []float64
	err       string
}

func loadScopeRows(t *testing.T) []scopeRow {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "scope", "*.c"))
	if err != nil || len(files) == 0 {
		t.Fatalf("scope rows: %v (%d files)", err, len(files))
	}
	var rows []scopeRow
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		row := scopeRow{name: strings.TrimSuffix(filepath.Base(f), ".c"), src: string(b)}
		for _, line := range strings.Split(row.src, "\n") {
			if s, ok := strings.CutPrefix(line, "// want: "); ok {
				for _, v := range strings.Fields(s) {
					x, err := strconv.ParseFloat(v, 64)
					if err != nil {
						t.Fatalf("%s: %v", f, err)
					}
					row.want = append(row.want, x)
				}
			}
			if s, ok := strings.CutPrefix(line, "// error: "); ok {
				row.err = s
			}
		}
		if len(row.want) != 4 {
			t.Fatalf("%s: want line has %d values, need 4", f, len(row.want))
		}
		rows = append(rows, row)
	}
	return rows
}

// scopeRun is the observable end of one engine run of a row.
type scopeRun struct {
	err     string
	out     []float64
	globals string
}

func (r scopeRun) String() string {
	return fmt.Sprintf("out %v, globals {%s}, err %q", r.out, r.globals, r.err)
}

func (r scopeRun) same(o scopeRun) bool {
	if r.err != o.err || r.globals != o.globals || len(r.out) != len(o.out) {
		return false
	}
	for i := range r.out {
		if math.Float64bits(r.out[i]) != math.Float64bits(o.out[i]) {
			return false
		}
	}
	return true
}

// openPlan clears the work estimate of every loop of the plan, so each
// chosen loop opens its region whenever its entry gate passes, as it
// does at sizes where the estimate reaches parallelize.MinWork. At
// n = 7 every region would decline.
func openPlan(plan *parallelize.Plan) *parallelize.Plan {
	for _, fp := range plan.Funcs {
		for _, lp := range fp.Loops {
			lp.Work = nil
		}
	}
	return plan
}

// TestVMScopeAgreement runs every scope row through the plan path (the
// New-level plan's program) on the tree walker and the VM at 1 and 2
// workers, and at 2 workers on the plan with its estimates cleared
// (openPlan). All six runs must end in bit-identical states with the
// same diagnostic, and that state must be the row's C expectation; the
// VM must count the regions the tree walker counts at each setting.
func TestVMScopeAgreement(t *testing.T) {
	for _, row := range loadScopeRows(t) {
		t.Run(row.name, func(t *testing.T) {
			plan := parallelize.Run(cminus.MustParse(row.src), phase2.LevelNew, nil)
			open := openPlan(parallelize.Run(cminus.MustParse(row.src), phase2.LevelNew, nil))
			want := scopeRun{err: row.err, out: row.want}
			var first scopeRun
			var treeStats Stats
			for i, run := range []struct {
				engine  string
				workers int
				plan    *parallelize.Plan
			}{{"tree", 1, plan}, {"vm", 1, plan}, {"tree", 2, plan}, {"vm", 2, plan}, {"tree", 2, open}, {"vm", 2, open}} {
				m, err := New(run.plan.Program())
				if err != nil {
					t.Fatal(err)
				}
				m.Plan, m.Workers, m.Interp = run.plan, run.workers, run.engine
				out := NewFloatArray("out", 4)
				got := scopeRun{out: out.Flts}
				if err := m.Call(row.name, 7, out); err != nil {
					got.err = err.Error()
				}
				var gs []string
				for name, v := range m.Globals {
					gs = append(gs, fmt.Sprintf("%s=%v/%#x/%d", name, v.Float, math.Float64bits(v.F), v.I))
				}
				sort.Strings(gs)
				got.globals = strings.Join(gs, " ")
				if i == 0 {
					first = got
					want.globals = got.globals
				} else if !got.same(first) {
					t.Errorf("%s@%d (open %v): %v; tree@1: %v", run.engine, run.workers, run.plan == open, got, first)
				}
				if !got.same(want) {
					t.Errorf("%s@%d (open %v): %v; C: out %v, err %q", run.engine, run.workers, run.plan == open, got, want.out, want.err)
				}
				if run.engine == "tree" {
					treeStats = m.Stats
				} else if m.Stats != treeStats {
					t.Errorf("vm@%d (open %v): counts %+v, tree %+v", run.workers, run.plan == open, m.Stats, treeStats)
				}
			}
		})
	}
}
