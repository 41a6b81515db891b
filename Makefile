# Build/test gates for the subscripted-subscript analysis repo.
#
#   make check   — the full pre-merge gate: fmt + vet + build (including
#                  the subsubd daemon) + tests + race detector +
#                  one-iteration bench smoke + daemon serve smoke +
#                  examples smoke
#   make fmt     — fail if any file is not gofmt-clean
#   make race    — go test -race ./... (the concurrent driver, the
#                  sharded symbolic cache, sched.ParallelLoop — the one
#                  parallel-for: the tree walker, the VM, the analysis
#                  job pool and, through its copy, the emitted Go run on
#                  it — and the serving layer must stay race-clean)
#   make serve-smoke — start the subsubd daemon, fire one request from
#                  examples/daemon over real loopback HTTP three times
#                  (miss, hit on the same bytes, hit on the request
#                  re-encoded in other bytes), validate the JSON and
#                  /metrics, and shut down gracefully
#   make examples-smoke — run quickstart, amgmk, sddmm and uatransf end
#                  to end; each exits nonzero when its parallel run
#                  does not reach its serial run's end state
#   make fuzz-smoke — 5s each of whole-pipeline fuzz (FuzzAnalyze),
#                  the wire JSON's string escaping (FuzzWireString),
#                  tree-vs-VM execution fuzz (FuzzVMDifferential), the
#                  simplifier and its memo keys (FuzzSimplify) and the
#                  parser (FuzzParse) as gate steps
#   make vm-differential — tree vs VM under the race detector: corpus
#                  bit-identity, the region-entry gate on adversarial
#                  subscript arrays (guards must send the region serial),
#                  the counter_max check alias, and global pointers
#   make codegen-differential — native-code differential: emit every
#                  corpus kernel as a standalone parallel Go package,
#                  go vet + build it with -race, run serial / 8-worker /
#                  guard-forced / adversarial, and require bit-identity
#                  with the VM; the counter_max alias on all three engines
#   make property-soundness — the injectivity/permutation fact battery:
#                  adversarial near-miss suite, scatter dependence tests,
#                  the serial-vs-parallel scatter differential, the
#                  guard scans that verify the facts at run time, the
#                  purity property over the tier-1 sources and the sign
#                  prover pins, all under the race detector
#   make fault-e2e — fault-injection daemon tests (stall/panic/budget
#                  failpoints) under the race detector
#   make chaos-e2e — the fleet chaos gate: consistent-hash ring, circuit
#                  breaker, crash-safe store, and the 3-node kill/revive
#                  chaos suite, all under the race detector
#   make incr-differential — the incremental-analysis gate: edit-script
#                  byte-identity vs cold runs (serial and 8-worker),
#                  callee-hash invalidation, the unit store, and the
#                  daemon edit loop (resubmit an edited source to
#                  /v1/analyze), all under the race detector
#   make fuzz    — short fuzz session over the parser and simplifier
#   make bench   — batch-driver, cache, interpreter and wire-encoder
#                  benchmarks
#   make perfbench — the repository benchmark (perfbench/, BENCHMARK.json):
#                  one 10 s untraced run of each workload at seed 1,
#                  printing each JSON result line; not part of check

GO ?= go

.PHONY: build fmt vet test race check examples-smoke fuzz fuzz-smoke fault-e2e chaos-e2e bench perfbench benchsmoke serve-smoke trace-smoke property-soundness codegen-differential incr-differential experiments

build:
	$(GO) build ./...

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# One iteration per benchmark: catches compile-pass and harness
# regressions in the gate without waiting for stable numbers.
# BenchmarkInterp covers both engines (tree vs VM), so the bytecode VM
# is exercised end to end here too.
benchsmoke:
	$(GO) test -run NONE -bench 'BenchmarkInterp' -benchtime=1x ./internal/corpus/

# Corpus bit-identity, tree vs VM: the tree oracle and the bytecode VM
# must produce byte-identical outputs over the Table-1 corpus plus the
# scatter extension, serial and multi-worker, under the race detector;
# the VM fuzz seed corpus must replay clean. The adversarial arm feeds
# every guarded kernel scrambled subscript arrays (TestGuard): both
# engines must take the same region-or-fallback path and reach the
# serial end state. The counter_max alias holds in runtime checks only,
# and a global pointer declarator is an array on both engines.
vm-differential:
	$(GO) test -race -run 'TestDifferential|TestScatterSerialVsParallel|TestVM|TestGuard|TestCounterMax|TestGlobalPointer' \
		./internal/corpus/ ./internal/interp/

# End-to-end daemon smoke: binds an ephemeral loopback port, posts the
# example request (a fresh analysis), the same bytes again (a
# byte-identical hit found by the request-body digest) and the request
# re-encoded in other bytes (a hit found by the canonical key), and checks
# /metrics (two hits, one miss) and /v1/health.
serve-smoke:
	$(GO) run ./cmd/subsubd -selfcheck examples/daemon/request.json

# CLI tracing smoke: analyze two real benchmarks with -trace, which
# validates the emitted Chrome trace-event JSON before writing it, then
# double-check the profile parses and names the pipeline stages.
trace-smoke:
	@tmp="$$(mktemp /tmp/subsubcc-trace.XXXXXX.json)"; \
	trap 'rm -f "$$tmp"' EXIT; \
	$(GO) run ./cmd/subsubcc -trace "$$tmp" testdata/sddmm.c testdata/cg.c >/dev/null || exit 1; \
	grep -q '"traceEvents"' "$$tmp" || { echo "trace-smoke: no traceEvents in $$tmp" >&2; exit 1; }; \
	for stage in parse phase1 phase2 depend annotate; do \
		grep -q "\"cat\": \"$$stage\"" "$$tmp" || { echo "trace-smoke: no $$stage span" >&2; exit 1; }; \
	done; \
	echo "trace-smoke ok"

# Examples smoke: run the examples, not just compile them. amgmk and
# sddmm run their corpus workload on the VM serially and on every core
# and compare the end states bit for bit; quickstart and uatransf check
# their parallel loop against the serial one through Result.Verify.
examples-smoke:
	@for e in quickstart amgmk sddmm uatransf; do \
		$(GO) run ./examples/$$e >/dev/null || { echo "examples-smoke: $$e failed" >&2; exit 1; }; \
	done; \
	echo "examples-smoke ok"

# Fuzz smoke: the whole pipeline (parse → analyze → wire JSON against
# encoding/json → re-analyze annotated output under a step budget and
# deadline), the wire writer's string escaping against encoding/json's,
# then execution, tree vs VM, with every fuzzed function compared
# against the tree oracle, then the simplifier (cached vs uncached,
# idempotence, memo keys and cap verdicts against the reference
# renderer) and the parser (print∘parse convergence). -fuzz accepts one
# package and one target per run.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzAnalyze -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzWireString -fuzztime 5s ./internal/core/
	$(GO) test -run '^$$' -fuzz FuzzVMDifferential -fuzztime 5s ./internal/interp/
	$(GO) test -run '^$$' -fuzz FuzzSimplify -fuzztime 5s ./internal/symbolic/
	$(GO) test -run '^$$' -fuzz FuzzParse -fuzztime 5s ./internal/cminus/

# Property-lattice soundness gate: the adversarial injectivity battery
# (near-misses must stay unclassified), the scatter dependence and
# regression-pin tests, the lattice unit tests, the scatter
# serial-vs-8-worker bit-identity differential, the guard scans that
# check the facts at region entry (internal/guard, at their edges),
# the purity property over the tier-1 sources (a loop tested parallel
# calls builtins only), the nonlinear pins (a subscript or fill value
# that is not linear in the loop index proves nothing) and the sign
# prover pins (a bound substituted to 0 proves an inequality, not an
# equality, so no fact covers an unrelated head element) — all with -race
# so the parallelized a[p[i]] writes are also checked for data races.
property-soundness:
	$(GO) test -race -run 'TestInjectivity|TestLattice|TestBestSelectors|TestInvalidateAndReplace|TestScatter|TestUAPinned|TestGuardScan|TestPureCalls|TestNonlinear|TestProve|TestSeamFact' \
		./internal/phase2/ ./internal/property/ ./internal/depend/ ./internal/corpus/ ./internal/guard/ ./internal/core/ ./internal/symbolic/

# Fault-injection end-to-end: deterministic failpoints (stall, panic,
# budget exhaustion) driven through the daemon's real HTTP stack, under
# the race detector.
fault-e2e:
	$(GO) test -race -run 'TestFault|TestBudgetExhausted|TestHealthzReadyz|TestReadyz' ./internal/server/

# Native-code differential: every corpus kernel (scatter extension
# included) is emitted as a standalone Go main package, go-vetted, built
# with -race, and executed serial / 8-worker / guard-forced; array end
# states must be bit-identical to the bytecode VM and the region
# counters must match (forced guard failures must all take the serial
# fallback). Guarded kernels also run their adversarial workloads
# (corpus.Adversarial) against the serial end state and the VM's
# counters. Reduction lowering gets its own differential (the corpus
# kernels carry none), the counter_max alias runs on all three engines
# (TestCounterMaxAlias), and the golden-file tests pin emitted source
# byte-for-byte.
codegen-differential:
	$(GO) test -race -run 'TestCodegenDifferential|TestReductionDifferential|TestGoldenEmit|TestEmitAllKernels|TestCounterMax' \
		./internal/codegen/

# Fleet chaos gate: the sharded-fleet building blocks (ring determinism,
# breaker state machine, crash-safe store) plus the 3-node chaos suite —
# peers stalled, dropped, 5xx'd, killed and revived, store writes
# crashed and entries corrupted — with zero client-visible errors and
# byte-identity against a standalone node, all under the race detector.
chaos-e2e:
	$(GO) test -race -run 'TestRing|TestBreaker|TestFill|TestProbe|TestStop|TestChaos|TestDrain' \
		./internal/cluster/ ./internal/server/
	$(GO) test -race ./internal/store/

# Incremental-analysis gate: replaying the edit script (rename / add
# loop / delete function / reorder) through a shared unit store must be
# byte-identical to cold runs serially and with 8 workers; editing a
# callee must invalidate its transitive callers; resubmitting an edited
# source to the daemon must recompute only the edited function and
# answer with a cold server's bytes — all under the race detector.
incr-differential:
	$(GO) test -race -run 'TestIncr' \
		./internal/incr/ ./internal/core/ ./internal/server/

check: fmt vet build test race benchsmoke vm-differential codegen-differential serve-smoke trace-smoke examples-smoke fuzz-smoke property-soundness fault-e2e chaos-e2e incr-differential

fuzz:
	$(GO) test -run FuzzParse -fuzz FuzzParse -fuzztime 20s ./internal/cminus/
	$(GO) test -run FuzzSimplify -fuzz FuzzSimplify -fuzztime 20s ./internal/symbolic/

bench:
	$(GO) test -run NONE -bench 'AnalyzeBatch|SimplifyCached|BenchmarkInterp|MarshalBatch' -benchmem ./...

# The repository benchmark, one run per workload; the last line of each
# run's standard output is its JSON result.
perfbench:
	@for w in compile-corpus serve-mix exec-kernels; do \
		out="$$(bash perfbench/run.sh --workload $$w --seed 1 --seconds 10 --trace 0)" || exit 1; \
		echo "$$w $$(printf '%s\n' "$$out" | tail -n 1)"; \
	done

experiments:
	$(GO) run ./cmd/benchrunner -experiment all
