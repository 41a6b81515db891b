// Package simcore is a deterministic multicore execution-time simulator.
//
// The paper's evaluation runs on a 20-core Xeon; this reproduction runs in
// a container with 2 cores, so the 4/8/16-core series of Figures 13-16 are
// produced by this model instead of wall-clock measurement (see DESIGN.md
// §4.3). The model is a work-span simulation over measured per-iteration
// costs: it reproduces exactly the effects the paper attributes its shapes
// to — fork-join overhead multiplied by outer-iteration count for
// inner-loop parallelization, load imbalance under static scheduling of
// skewed sparse structures, and scheduling-policy differences — while
// real goroutine timings (internal/sched) provide the calibration
// constants.
//
// Costs are in abstract work units; the calibration maps units to seconds
// via a measured serial rate, the fork-join overhead via
// sched.MeasureForkJoin, and the dynamic-dispatch overhead via a timed
// loop of two goroutines pulling one-iteration chunks off a
// mutex-guarded counter (internal/bench).
package simcore

// Policy selects the simulated loop schedule.
type Policy int

// Scheduling policies (mirroring OpenMP's static and dynamic).
const (
	Static Policy = iota
	Dynamic
)

func (p Policy) String() string {
	if p == Dynamic {
		return "dynamic"
	}
	return "static"
}

// Machine is a simulated multicore.
type Machine struct {
	// Cores is the simulated core count.
	Cores int
	// ForkJoin is the cost (work units) to launch and join one parallel
	// region.
	ForkJoin float64
	// Dispatch is the per-chunk cost (work units) a worker pays to grab
	// work under dynamic scheduling.
	Dispatch float64
	// MemSat is the core count at which the socket's memory bandwidth
	// saturates: the memory-bound fraction of a kernel's work speeds up
	// by at most min(Cores, MemSat). Typical sockets saturate around 3-4
	// cores; 0 means unlimited bandwidth.
	MemSat float64
}

// memScale returns the effective parallelism available to memory-bound
// work.
func (m Machine) memScale() float64 {
	if m.MemSat <= 0 {
		return float64(m.Cores)
	}
	if float64(m.Cores) < m.MemSat {
		return float64(m.Cores)
	}
	return m.MemSat
}

// RooflineTime combines a compute makespan (which scales with cores and
// scheduling) with a memory-bound floor (which scales only to bandwidth
// saturation): for a kernel whose fraction memFrac of work is
// memory-bandwidth-limited,
//
//	T = (1-f)·makespan + f·totalWork/min(P, MemSat)
//
// (the fork-join charge stays with the caller's makespan composition).
func (m Machine) RooflineTime(makespan, totalWork, memFrac float64) float64 {
	if memFrac < 0 {
		memFrac = 0
	}
	if memFrac > 1 {
		memFrac = 1
	}
	return (1-memFrac)*makespan + memFrac*totalWork/m.memScale()
}

// SerialTime is the serial execution time: the sum of all costs.
func SerialTime(costs []float64) float64 {
	var s float64
	for _, c := range costs {
		s += c
	}
	return s
}

// StaticTime simulates an OpenMP static schedule: contiguous blocks of
// ceil(n/P) iterations per core; region time is the maximum per-core sum
// plus one fork-join.
func (m Machine) StaticTime(costs []float64) float64 {
	n := len(costs)
	if n == 0 {
		return 0
	}
	p := m.Cores
	if p > n {
		p = n
	}
	if p <= 1 {
		return SerialTime(costs)
	}
	per := (n + p - 1) / p
	var worst float64
	for start := 0; start < n; start += per {
		end := start + per
		if end > n {
			end = n
		}
		var sum float64
		for _, c := range costs[start:end] {
			sum += c
		}
		if sum > worst {
			worst = sum
		}
	}
	return m.ForkJoin + worst
}

// DynamicTime simulates a dynamic schedule with the given chunk size:
// idle workers repeatedly grab the next chunk (greedy list scheduling).
// Chunk handout serializes on the scheduler's lock and its cost grows
// with the number of contending cores (cache-line bouncing), so the
// effective per-grab cost is Dispatch·max(1, P/2). This is what makes
// dynamic scheduling lose on well-balanced inputs (the paper's af_shell1
// case in Figure 16) while winning on skewed ones.
func (m Machine) DynamicTime(costs []float64, chunk int) float64 {
	n := len(costs)
	if n == 0 {
		return 0
	}
	if chunk <= 0 {
		chunk = 1
	}
	p := m.Cores
	if p > n {
		p = n
	}
	if p <= 1 {
		return SerialTime(costs) + m.Dispatch*float64((n+chunk-1)/chunk)
	}
	grab := m.Dispatch * float64(p) / 2
	if grab < m.Dispatch {
		grab = m.Dispatch
	}
	// Greedy: assign each chunk to the earliest-free worker, serializing
	// the grabs through the scheduler lock.
	free := make([]float64, p)
	var lockFree float64
	for start := 0; start < n; start += chunk {
		end := start + chunk
		if end > n {
			end = n
		}
		var sum float64
		for _, c := range costs[start:end] {
			sum += c
		}
		// Earliest-free worker.
		w := 0
		for i := 1; i < p; i++ {
			if free[i] < free[w] {
				w = i
			}
		}
		startAt := free[w]
		if lockFree > startAt {
			startAt = lockFree
		}
		lockFree = startAt + grab
		free[w] = startAt + grab + sum
	}
	var worst float64
	for _, f := range free {
		if f > worst {
			worst = f
		}
	}
	return m.ForkJoin + worst
}

// Schedule selects between StaticTime and DynamicTime.
func (m Machine) Schedule(policy Policy, costs []float64, chunk int) float64 {
	if policy == Dynamic {
		return m.DynamicTime(costs, chunk)
	}
	return m.StaticTime(costs)
}

// Calibration converts work units to seconds and holds measured
// overheads.
type Calibration struct {
	// SecondsPerUnit is the measured serial execution rate.
	SecondsPerUnit float64
	// ForkJoinUnits is the measured fork-join overhead in work units.
	ForkJoinUnits float64
	// DispatchUnits is the per-chunk dynamic dispatch overhead in units.
	DispatchUnits float64
}

// MemSatCores is the default bandwidth-saturation point (cores): a
// typical dual-socket Xeon's per-socket bandwidth saturates around 3-4
// streaming cores.
const MemSatCores = 3.0

// NewMachine builds a simulated machine from a calibration.
func (c Calibration) NewMachine(cores int) Machine {
	return Machine{Cores: cores, ForkJoin: c.ForkJoinUnits, Dispatch: c.DispatchUnits, MemSat: MemSatCores}
}
