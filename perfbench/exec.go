package main

// The exec-kernels workload: the fifteen corpus kernels, each analyzed once
// at set-up, run by the default execution engine with the loops their plans
// chose spread over execWorkers goroutines. An operation restores one
// kernel's seeded inputs and runs its calls — the fill loops that build the
// subscript arrays, then the kernel. Every run of a kernel must reach the
// same end state bit for bit, and that state must match the tree-walking
// interpreter running the original source serially on the same inputs.
//
// The kernels run at the corpus's quick scale, whose arrays fit in cache.
// At bench scale the same workload spread by up to a fifth between runs on
// a shared two-processor host, against about a twentieth here, and ran too
// few operations of each kernel for a steady 90th percentile.

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"repro/internal/cminus"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/interp"
	"repro/internal/symbolic"
)

// execWorkers is the number of goroutines a parallel loop runs on.
const execWorkers = 2

// kernelRun is one corpus kernel ready to run: its machine, its workload
// arrays, and a pristine copy of their seeded contents.
type kernelRun struct {
	bench    *corpus.Benchmark
	work     *corpus.Work
	m        *interp.Machine
	names    []string
	pristine map[string]*interp.Array
}

func newKernelRun(b *corpus.Benchmark, rng *rand.Rand) (*kernelRun, error) {
	res, err := core.Analyze(b.Source, core.Options{Level: core.New, AssumePositive: b.AssumePositive})
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	m, err := res.NewMachine(execWorkers)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	if err := m.Precompile(); err != nil {
		return nil, fmt.Errorf("%s: %w", b.Name, err)
	}
	k := &kernelRun{bench: b, work: corpus.NewWork(b, corpus.ScaleQuick), m: m, pristine: map[string]*interp.Array{}}
	for name := range k.work.Arrays {
		k.names = append(k.names, name)
	}
	sort.Strings(k.names)
	// The seed scales every float input by a factor in [0.75, 1.25]: signs
	// and magnitudes stay where the kernels expect them (positive
	// diagonals, well-conditioned columns), values differ per seed.
	for _, name := range k.names {
		a := k.work.Arrays[name]
		for i := range a.Flts {
			a.Flts[i] *= 0.75 + 0.5*rng.Float64()
		}
		k.pristine[name] = a.Clone()
	}
	return k, nil
}

// reset restores the seeded inputs in place.
func (k *kernelRun) reset() {
	for _, name := range k.names {
		a, p := k.work.Arrays[name], k.pristine[name]
		copy(a.Ints, p.Ints)
		copy(a.Flts, p.Flts)
	}
}

// checksum hashes the end state of every workload array.
func (k *kernelRun) checksum() uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) { h = (h ^ v) * 1099511628211 }
	for _, name := range k.names {
		a := k.work.Arrays[name]
		for _, v := range a.Ints {
			mix(uint64(v))
		}
		for _, v := range a.Flts {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// endState runs the kernel's calls on m from the seeded inputs and returns
// a copy of every array's end state.
func (k *kernelRun) endState(m *interp.Machine) (map[string]*interp.Array, error) {
	k.reset()
	if err := k.work.Run(m); err != nil {
		return nil, err
	}
	out := map[string]*interp.Array{}
	for _, name := range k.names {
		out[name] = k.work.Arrays[name].Clone()
	}
	return out, nil
}

// verify checks the machine's end state against the tree-walking
// interpreter running the original source serially. Integers must match
// exactly; floats within a relative 1e-9, because a parallel reduction
// adds its partial sums in another order than the serial loop.
func (k *kernelRun) verify() (uint64, error) {
	got, err := k.endState(k.m)
	if err != nil {
		return 0, err
	}
	sum := k.checksum()
	oracle, err := interp.New(cminus.MustParse(k.bench.Source))
	if err != nil {
		return 0, err
	}
	oracle.Interp = "tree"
	want, err := k.endState(oracle)
	if err != nil {
		return 0, fmt.Errorf("tree interpreter: %w", err)
	}
	for _, name := range k.names {
		g, w := got[name], want[name]
		for i := range w.Ints {
			if g.Ints[i] != w.Ints[i] {
				return 0, fmt.Errorf("%s[%d] = %d, tree interpreter has %d", name, i, g.Ints[i], w.Ints[i])
			}
		}
		for i := range w.Flts {
			if math.Abs(g.Flts[i]-w.Flts[i]) > 1e-9*math.Max(1, math.Abs(w.Flts[i])) {
				return 0, fmt.Errorf("%s[%d] = %g, tree interpreter has %g", name, i, g.Flts[i], w.Flts[i])
			}
		}
	}
	return sum, nil
}

func runExec(cfg config) (*run, error) {
	benches := corpus.Extended()
	kernels, setup, err := setUp(func(int) ([]*kernelRun, error) {
		// A fresh process starts with an empty symbolic memo.
		symbolic.ResetCache()
		rng := rand.New(rand.NewSource(cfg.seed))
		var ks []*kernelRun
		for _, b := range benches {
			k, err := newKernelRun(b, rng)
			if err != nil {
				return nil, err
			}
			ks = append(ks, k)
		}
		return ks, nil
	}, nil)
	if err != nil {
		return nil, err
	}

	r := newRun(setup)
	sums := make([][]uint64, len(kernels))
	var (
		fill, kernel time.Duration
		regions      int
		allocs       allocMeter
		order        []int
	)
	rng := rand.New(rand.NewSource(cfg.seed))
	measure(r, cfg.window, func(i int) (string, time.Duration, error) {
		if i%len(kernels) == 0 {
			order = rng.Perm(len(kernels))
		}
		ki := order[i%len(kernels)]
		k := kernels[ki]
		k.reset()
		before := k.m.Stats.ParallelRegions
		t0 := time.Now()
		for _, c := range k.work.Calls {
			tc := time.Now()
			if err := k.m.Call(c.Fn, c.Args...); err != nil {
				return k.bench.Name, time.Since(t0), fmt.Errorf("%s: %w", k.bench.Name, err)
			}
			if c.Fn == k.bench.KernelFunc {
				kernel += time.Since(tc)
			} else {
				fill += time.Since(tc)
			}
		}
		lat := time.Since(t0)
		regions += k.m.Stats.ParallelRegions - before
		sums[ki] = append(sums[ki], k.checksum())
		return k.bench.Name, lat, nil
	}, func() {
		sums = make([][]uint64, len(kernels))
		fill, kernel, regions = 0, 0, 0
		allocs = startAllocs()
	})
	ops := r.ops()
	r.layers["alloc_kb_per_op"] = allocs.kibPer(ops)
	r.layers["fill_ms"] = ms(fill) / float64(ops)
	r.layers["kernel_ms"] = ms(kernel) / float64(ops)
	r.layers["parallel_regions_per_op"] = float64(regions) / float64(ops)

	// Every run of a kernel must reach the same end state, and that state
	// must match the tree interpreter's.
	for ki, k := range kernels {
		if len(sums[ki]) == 0 {
			continue
		}
		want, err := k.verify()
		if err != nil {
			r.failed += len(sums[ki])
			logf("exec-kernels: %s: %v", k.bench.Name, err)
			continue
		}
		for _, got := range sums[ki] {
			if got != want {
				r.failed++
				logf("exec-kernels: %s: end state differs between runs", k.bench.Name)
			}
		}
	}
	return r, nil
}
