package bench

// The incr experiment measures what the function-granular incremental
// subsystem (internal/incr) buys on the interactive-editing workload:
// a user re-submits a source with one edited function out of N. Cold
// analyzes with no unit store; warm analyzes the edited source against a
// store primed with the pre-edit source, so exactly one function (plus
// transitive callers — none here) is dirty.
// Warm output is asserted byte-identical to cold before any timing is
// reported: a speedup from wrong bytes would be meaningless.
//
// The HTTP columns time the same edit as a daemon client sees it: POST
// the edited source to /v1/analyze on an in-process server over
// loopback, cold on a fresh server and warm on one that has already
// served the pre-edit source. The server-wide unit store is what makes
// the warm POST cheap.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/incr"
	"repro/internal/server"
)

// IncrRow is one machine-readable measurement: cold vs warm re-analysis
// latency for a translation unit of Funcs functions with one edited.
type IncrRow struct {
	Funcs       int     `json:"funcs"`
	DirtyFuncs  int     `json:"dirty_funcs"`
	ColdSeconds float64 `json:"cold_seconds"`
	WarmSeconds float64 `json:"warm_seconds"`
	Speedup     float64 `json:"speedup"`
	FuncHits    int     `json:"func_hits"`
	FuncMisses  int     `json:"func_misses"`
	PlanHits    int     `json:"plan_hits"`
	PlanMisses  int     `json:"plan_misses"`
	// HTTPColdSeconds / HTTPWarmSeconds time POST /v1/analyze of the
	// edited source: on a fresh server, and on one that has served the
	// pre-edit source.
	HTTPColdSeconds float64 `json:"http_cold_seconds"`
	HTTPWarmSeconds float64 `json:"http_warm_seconds"`
}

// IncrReport is the BENCH_incr.json document.
type IncrReport struct {
	GOOS   string    `json:"goos"`
	GOARCH string    `json:"goarch"`
	Cores  int       `json:"cores"`
	Rows   []IncrRow `json:"rows"`
}

// incrSource synthesizes a translation unit of n fill/kernel function
// pairs in the paper's subscripted-subscript shape: fill_<i> builds a
// strictly increasing subscript array, kernel_<i> scatters through it.
// edited < 0 yields the base source; otherwise kernel_<edited> gets a
// one-statement body edit (no loop-count change, so only that function
// and its — absent — callers should miss the unit cache).
func incrSource(n, edited int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "void fill_%d(int n, int *idx_%d) {\n", i, i)
		fmt.Fprintf(&b, "    int j, x;\n    x = 0;\n")
		fmt.Fprintf(&b, "    for (j = 0; j < n; j++) {\n")
		fmt.Fprintf(&b, "        idx_%d[j] = x;\n        x = x + %d;\n    }\n}\n", i, 1+i%3)
		fmt.Fprintf(&b, "void kernel_%d(int n, int *idx_%d, double *a, double *v) {\n", i, i)
		fmt.Fprintf(&b, "    int j;\n")
		fmt.Fprintf(&b, "    for (j = 0; j < n; j++) {\n")
		if i == edited {
			fmt.Fprintf(&b, "        a[idx_%d[j]] = a[idx_%d[j]] + v[j] * 2.0;\n", i, i)
		} else {
			fmt.Fprintf(&b, "        a[idx_%d[j]] = a[idx_%d[j]] + v[j];\n", i, i)
		}
		fmt.Fprintf(&b, "    }\n}\n")
	}
	return b.String()
}

// incrSizes are the translation-unit sizes (function-pair counts)
// measured; one pair = one fill + one kernel function.
var incrSizes = []int{2, 8, 32}

// Incr measures cold vs warm (1 dirty function of N) re-analysis
// latency, prints a table, and writes BENCH_incr.json when jsonPath is
// non-empty. It fails if warm output is not byte-identical to cold.
func (h *Harness) Incr(jsonPath string) (*IncrReport, error) {
	reps := 5
	sizes := incrSizes
	if h.Quick {
		reps, sizes = 2, []int{2, 8}
	}
	rep := &IncrReport{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, Cores: runtime.NumCPU()}

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()

	h.printf("Incr: cold vs warm re-analysis, 1 edited function of N (best of %d)\n", reps)
	h.printf("%-8s %-8s %12s %12s %10s %12s %12s %12s\n",
		"funcs", "dirty", "cold s", "warm s", "speedup", "reuse (h/m)", "http cold s", "http warm s")
	for _, n := range sizes {
		base := incrSource(n, -1)
		edited := incrSource(n, n/2)
		opt := core.Options{Level: core.New, Workers: 1}
		baseReq, err := incrRequest(base)
		if err != nil {
			return nil, err
		}
		editedReq, err := incrRequest(edited)
		if err != nil {
			return nil, err
		}

		coldRes, err := core.Analyze(edited, opt)
		if err != nil {
			return nil, fmt.Errorf("incr: cold analyze (n=%d): %w", n, err)
		}
		coldJSON, err := core.MarshalBatch([]*core.BatchResult{{Name: "edit", Res: coldRes}}, true)
		if err != nil {
			return nil, err
		}

		var cold, warm, httpCold, httpWarm float64
		var row IncrRow
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			if _, err := core.Analyze(edited, opt); err != nil {
				return nil, err
			}
			if d := time.Since(t0).Seconds(); r == 0 || d < cold {
				cold = d
			}

			// Prime a fresh store with the pre-edit source, then time the
			// warm re-analysis of the edited source.
			wopt := opt
			wopt.Incremental = incr.NewStore(0)
			if _, err := core.Analyze(base, wopt); err != nil {
				return nil, err
			}
			t1 := time.Now()
			warmRes, err := core.Analyze(edited, wopt)
			if err != nil {
				return nil, err
			}
			if d := time.Since(t1).Seconds(); r == 0 || d < warm {
				warm = d
			}
			warmJSON, err := core.MarshalBatch([]*core.BatchResult{{Name: "edit", Res: warmRes}}, true)
			if err != nil {
				return nil, err
			}
			if !bytes.Equal(coldJSON, warmJSON) {
				return nil, fmt.Errorf("incr: warm re-analysis not byte-identical to cold (n=%d)", n)
			}
			row.FuncHits = warmRes.Plan.Incr.FuncHits
			row.FuncMisses = warmRes.Plan.Incr.FuncMisses
			row.PlanHits = warmRes.Plan.Incr.PlanHits
			row.PlanMisses = warmRes.Plan.Incr.PlanMisses

			// The same edit through the daemon: a fresh server (cold), and
			// one that has served the pre-edit source (warm).
			for _, arm := range []struct {
				name  string
				prime []byte
				best  *float64
			}{{"cold", nil, &httpCold}, {"warm", baseReq, &httpWarm}} {
				d, body, err := timeHTTPEdit(client, arm.prime, editedReq)
				if err != nil {
					return nil, fmt.Errorf("incr: http %s (n=%d): %w", arm.name, n, err)
				}
				if !bytes.Equal(coldJSON, body) {
					return nil, fmt.Errorf("incr: http %s response not byte-identical to cold (n=%d)", arm.name, n)
				}
				if r == 0 || d < *arm.best {
					*arm.best = d
				}
			}
		}
		row.Funcs = 2 * n
		row.DirtyFuncs = row.FuncMisses
		row.ColdSeconds = cold
		row.WarmSeconds = warm
		if warm > 0 {
			row.Speedup = cold / warm
		}
		row.HTTPColdSeconds = httpCold
		row.HTTPWarmSeconds = httpWarm
		rep.Rows = append(rep.Rows, row)
		h.printf("%-8d %-8d %12.6f %12.6f %9.2fx %8d/%-3d %12.6f %12.6f\n",
			row.Funcs, row.DirtyFuncs, cold, warm, row.Speedup, row.FuncHits, row.FuncMisses, httpCold, httpWarm)
	}
	h.printf("\n")

	if jsonPath != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
			return nil, err
		}
		h.printf("wrote %s\n\n", jsonPath)
	}
	return rep, nil
}

// incrRequest is the /v1/analyze body for src, with the options and the
// source name the cold MarshalBatch reference uses.
func incrRequest(src string) ([]byte, error) {
	return json.Marshal(server.AnalyzeRequest{
		Sources:  []server.SourceJSON{{Name: "edit", Src: src}},
		Level:    "new",
		Annotate: true,
	})
}

// timeHTTPEdit starts a fresh in-process daemon on a loopback port, as
// newServeFleet starts its nodes, POSTs prime to /v1/analyze when it is
// non-nil, and returns the wall time and body of POSTing edit. Without a
// prime a health probe opens the connection, so both arms time one
// request on a kept-alive connection.
func timeHTTPEdit(client *http.Client, prime, edit []byte) (float64, []byte, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, nil, err
	}
	hs := &http.Server{Handler: server.New(server.Config{})}
	go hs.Serve(ln)
	defer hs.Close()
	url := "http://" + ln.Addr().String()
	send := func(method, path string, body []byte) ([]byte, error) {
		req, err := http.NewRequest(method, url+path, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		resp, err := client.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, out)
		}
		return out, err
	}
	if prime != nil {
		_, err = send(http.MethodPost, "/v1/analyze", prime)
	} else {
		_, err = send(http.MethodGet, "/v1/health", nil)
	}
	if err != nil {
		return 0, nil, err
	}
	t0 := time.Now()
	body, err := send(http.MethodPost, "/v1/analyze", edit)
	return time.Since(t0).Seconds(), body, err
}
