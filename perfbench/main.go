// Command perfbench is the repository benchmark. It drives one workload —
// the analysis pipeline over the corpus, the subsubd daemon under a traffic
// mix, or the execution engine over the corpus kernels — on inputs made
// from --seed, checks every output, and prints one JSON result line.
//
//	bash perfbench/run.sh --workload compile-corpus --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics; with --trace 1 the
// same workload runs with tracing on and the result holds the per-layer
// metrics instead (see README.md).
//
// Operations come in kinds that cost very different amounts — one kind per
// corpus program, and on serve-mix per program and request type — so a
// latency quantile over all of them would track whichever kind lands at
// that rank. Every latency metric is therefore taken kind by kind and
// summarised as the geometric mean over kinds: each kind weighs the same,
// and making one kind of K x% faster moves the metric by about x/K %.
//
// The host's speed drifts by a tenth or more over tens of seconds when
// other tenants load it, which moves every time alike. Before each
// measured operation the benchmark therefore times a fixed probe loop of
// its own, and reports every end-to-end time scaled to a host on which the
// probe's median is probeRef.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

const (
	// setupReps is how many times each workload sets up per run; setup_s
	// is the median, so one slow set-up does not move it.
	setupReps = 9
	// warmUp is how long operations run unmeasured before the window
	// opens, so memos and the heap reach their steady state first.
	warmUp = time.Second
	// probeRef is the probe time end-to-end times are scaled to: about
	// the probe's median on a 2-vCPU x86-64 VM.
	probeRef = 100 * time.Microsecond
)

type config struct {
	seed    int64
	window  time.Duration
	tracing bool
}

// run is what one workload hands back: its set-up time, the latency of
// every operation measured by kind, and, on traced runs, its per-layer
// values.
type run struct {
	setup     time.Duration
	attempted int
	lat       map[string][]time.Duration
	window    time.Duration // wall time of the measured window
	probes    []time.Duration
	failed    int
	layers    map[string]float64
	// tracedPath is set by a workload whose measured operations run
	// traced when tracing is on, so that traced_p50_ms is reported.
	tracedPath bool
}

func newRun(setup time.Duration) *run {
	return &run{setup: setup, lat: map[string][]time.Duration{}, layers: map[string]float64{}}
}

// ops is the number of operations measured.
func (r *run) ops() int {
	n := 0
	for _, l := range r.lat {
		n += len(l)
	}
	return n
}

var workloads = map[string]func(config) (*run, error){
	"compile-corpus": runCompile,
	"serve-mix":      runServe,
	"exec-kernels":   runExec,
}

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload does not pass through reads 0,
// and traced_p50_ms reads 0 where tracing leaves the measured path as is.
var perLayer = []struct{ name, unit string }{
	{"traced_p50_ms", "ms"},
	{"parse_ms", "ms"},
	{"phase1_ms", "ms"},
	{"phase2_ms", "ms"},
	{"depend_ms", "ms"},
	{"annotate_ms", "ms"},
	{"analysis_other_ms", "ms"},
	{"proofs_per_op", "count"},
	{"dep_pairs_per_op", "count"},
	{"steps_per_op", "count"},
	{"symcache_hit_pct", "%"},
	{"result_cache_hit_pct", "%"},
	{"incr_unit_hit_pct", "%"},
	{"hit_p50_ms", "ms"},
	{"miss_p50_ms", "ms"},
	{"fill_ms", "ms"},
	{"kernel_ms", "ms"},
	{"parallel_regions_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"probe_us", "us"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: compile-corpus, serve-mix or exec-kernels")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := flag.Int("seconds", 10, "length of the measured window in seconds")
	traced := flag.Int("trace", 0, "1 runs with tracing on and reports per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {compile-corpus|serve-mix|exec-kernels} --seed N --seconds S --trace {0|1}\n")
		os.Exit(2)
	}
	r, err := fn(config{seed: *seed, window: time.Duration(*seconds) * time.Second, tracing: *traced == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if r.ops() == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %s: no operation succeeded in the window\n", *name)
		os.Exit(1)
	}

	res := result{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metric{},
	}
	probe := median(r.probes)
	scale := float64(probeRef) / float64(probe)
	if *traced == 1 {
		r.layers["probe_us"] = float64(probe) / float64(time.Microsecond)
		if r.tracedPath {
			r.layers["traced_p50_ms"] = geoQuantileMs(r.lat, 0.50) * scale
		}
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{Value: r.layers[m.name], Unit: m.unit}
		}
	} else {
		res.Metrics["op_p50_ms"] = metric{Value: geoQuantileMs(r.lat, 0.50) * scale, Unit: "ms"}
		res.Metrics["op_p90_ms"] = metric{Value: geoQuantileMs(r.lat, 0.90) * scale, Unit: "ms"}
		res.Metrics["ops_per_s"] = metric{Value: balancedRate(r.lat) / scale, Unit: "1/s"}
		res.Metrics["setup_s"] = metric{Value: r.setup.Seconds() * scale, Unit: "s"}
	}
	fewest := -1
	for _, l := range r.lat {
		if fewest < 0 || len(l) < fewest {
			fewest = len(l)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops of %d kinds (fewest %d of a kind) in %v, %d failed, probe median %v (%s, GOMAXPROCS %d)\n",
		*name, *seed, r.ops(), len(r.lat), fewest, r.window.Round(time.Millisecond), r.failed, probe, runtime.Version(), runtime.GOMAXPROCS(0))
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// setUp builds a workload's state setupReps times and keeps the last one,
// releasing the others with drop, and returns the median set-up time.
func setUp[T any](build func(rep int) (T, error), drop func(T)) (T, time.Duration, error) {
	var (
		state T
		times []time.Duration
	)
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 && drop != nil {
			drop(state)
		}
		runtime.GC()
		t0 := time.Now()
		s, err := build(rep)
		if err != nil {
			return state, 0, err
		}
		times = append(times, time.Since(t0))
		state = s
	}
	sortDurations(times)
	return state, times[len(times)/2], nil
}

// measure runs op back to back, first for warmUp unmeasured, then for the
// window, timing the probe before each windowed operation. op returns the
// kind of operation it ran and its latency. open is called as the window
// opens, so a workload can start its per-layer counters there. It records
// in r every windowed operation's latency under its kind, every probe time
// and the window's wall time, and counts every operation attempted and
// failed.
func measure(r *run, window time.Duration, op func(i int) (string, time.Duration, error), open func()) {
	i := 0
	for t0 := time.Now(); time.Since(t0) < warmUp; i++ {
		r.attempted++
		if _, _, err := op(i); err != nil {
			r.failed++
			logf("%v", err)
		}
	}
	runtime.GC()
	open()
	start := time.Now()
	for ; time.Since(start) < window; i++ {
		r.attempted++
		r.probes = append(r.probes, runProbe())
		kind, lat, err := op(i)
		if err != nil {
			r.failed++
			logf("%v", err)
			continue
		}
		r.lat[kind] = append(r.lat[kind], lat)
	}
	r.window = time.Since(start)
}

// geoQuantileMs is the geometric mean over kinds of each kind's q-quantile
// latency, in milliseconds; 0 when there are no latencies.
func geoQuantileMs(lat map[string][]time.Duration, q float64) float64 {
	if len(lat) == 0 {
		return 0
	}
	var logs float64
	for _, l := range lat {
		s := append([]time.Duration(nil), l...)
		sortDurations(s)
		logs += math.Log(ms(quantile(s, q)))
	}
	return math.Exp(logs / float64(len(lat)))
}

// balancedRate is the throughput, in operations per second of operation
// time, of a mix holding every kind equally often: the inverse of the mean
// over kinds of each kind's mean latency. The benchmark's own work between
// operations (restoring inputs, checksums) does not count.
func balancedRate(lat map[string][]time.Duration) float64 {
	var meanSum float64
	for _, l := range lat {
		var busy time.Duration
		for _, d := range l {
			busy += d
		}
		meanSum += busy.Seconds() / float64(len(l))
	}
	if meanSum == 0 {
		return 0
	}
	return float64(len(lat)) / meanSum
}

var (
	probeBuf  [4096]uint64
	probeSink uint64
)

// runProbe times a fixed loop of dependent loads, stores and multiplies
// over 32 KiB, which allocates nothing and touches nothing of the program
// measured: its time changes only with the speed the host gives this
// process.
func runProbe() time.Duration {
	t0 := time.Now()
	h := uint64(14695981039346656037)
	for round := 0; round < 4; round++ {
		for i := range probeBuf {
			j := (uint64(i)*2654435761 + h) % uint64(len(probeBuf))
			h = (h ^ probeBuf[j]) * 1099511628211
			probeBuf[i] += h >> 7
		}
	}
	probeSink += h
	return time.Since(t0)
}

// median returns the median of unsorted samples.
func median(d []time.Duration) time.Duration {
	s := append([]time.Duration(nil), d...)
	sortDurations(s)
	return quantile(s, 0.5)
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// quantile returns the nearest-rank q-quantile of ascending samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

var logged atomic.Int64

// logf reports a failed operation on standard error, quietly after the
// first few.
func logf(format string, args ...any) {
	if logged.Add(1) <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	}
}

// allocMeter measures heap bytes allocated across a window.
type allocMeter struct{ start uint64 }

func startAllocs() allocMeter {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return allocMeter{start: st.TotalAlloc}
}

// kibPer returns the KiB allocated since start per operation.
func (a allocMeter) kibPer(ops int) float64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	if ops == 0 {
		return 0
	}
	return float64(st.TotalAlloc-a.start) / 1024 / float64(ops)
}
