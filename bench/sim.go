package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/task"
	table2 "repro/internal/workloads"
)

// simCell is one (workload, policy) pair of a simulation matrix.
type simCell struct {
	w     *task.Workload
	pol   string
	tasks int
}

// simMatrix is what one repetition runs, in order. The workloads are
// generated from the seed at set-up; the simulator gets the workloads
// and its own fixed seed, never the input seed.
type simMatrix struct {
	cells []simCell
	tasks int // per repetition
}

func (m *simMatrix) add(w *task.Workload, pol string) {
	n := w.TotalTasks()
	m.cells = append(m.cells, simCell{w: w, pol: pol, tasks: n})
	m.tasks += n
}

// table2Matrix is the 7 Table II benchmarks x 4 policies x seeds
// {s, s+1, s+2}.
func table2Matrix(seed uint64) *simMatrix {
	m := &simMatrix{}
	for ds := uint64(0); ds < 3; ds++ {
		for _, b := range table2.All() {
			w := b.Workload(seed + ds)
			for _, pol := range simPolicies {
				m.add(w, pol)
			}
		}
	}
	return m
}

// deepMatrix is 3 batches x 4096 tasks of one class, cilk then eewa.
func deepMatrix(seed uint64) (*simMatrix, error) {
	w, err := task.Generate("deep", 3, []task.ClassSpec{{Name: "deep/unit", Count: 4096, MeanWork: 0.001, JitterFrac: 0.05}}, seed)
	if err != nil {
		return nil, err
	}
	m := &simMatrix{}
	m.add(w, policy.IDCilk)
	m.add(w, policy.IDEEWA)
	return m, nil
}

// runCell is one sched.Run with a fresh policy (policies carry state).
func runCell(cell *simCell, params sched.Params) (*sched.Result, error) {
	p, err := policy.New(cell.pol, cfgMachine())
	if err != nil {
		return nil, err
	}
	return sched.Run(cfgMachine(), cell.w, p, params)
}

// simRep is what one repetition of the matrix produced: per cell the
// host time and the simulated outputs.
type simRep struct {
	hostNS   []int64
	makespan []float64
	energy   []float64
	results  []*sched.Result // kept by traced runs only
	allocs   uint64
	wallS    float64
}

func (m *simMatrix) rep(c *runCtx, repIdx int, keep bool) (*simRep, error) {
	r := &simRep{hostNS: make([]int64, len(m.cells)), makespan: make([]float64, len(m.cells)), energy: make([]float64, len(m.cells))}
	if keep {
		r.results = make([]*sched.Result, len(m.cells))
	}
	m0 := mallocs()
	start := time.Now()
	for i := range m.cells {
		t0 := time.Now()
		r0 := c.rec.now()
		res, err := runCell(&m.cells[i], sched.Params{Seed: cfgServerSeed})
		if err != nil {
			return nil, err
		}
		r.hostNS[i] = int64(time.Since(t0))
		c.rec.add("sched.Run", r0, c.rec.now(), -1, int32(repIdx*len(m.cells)+i))
		r.makespan[i], r.energy[i] = res.Makespan, res.Energy
		if keep {
			r.results[i] = res
		}
	}
	r.wallS = time.Since(start).Seconds()
	r.allocs = mallocs() - m0
	return r, nil
}

// taskCounter is a sched.Recorder that counts executed tasks: the
// engine reports one span per task it ran.
type taskCounter struct{ n int }

func (t *taskCounter) Record(int, float64, float64, string, int) { t.n++ }

// verify runs every cell once more, untimed, with a counting recorder:
// tasks executed must equal tasks generated, and the simulated outputs
// must match the reference repetition bit for bit.
func (m *simMatrix) verify(ref *simRep) error {
	for i := range m.cells {
		tc := &taskCounter{}
		res, err := runCell(&m.cells[i], sched.Params{Seed: cfgServerSeed, Recorder: tc})
		if err != nil {
			return err
		}
		if tc.n != m.cells[i].tasks {
			return fmt.Errorf("cell %d (%s/%s): %d tasks executed, %d generated", i, m.cells[i].w.Name, m.cells[i].pol, tc.n, m.cells[i].tasks)
		}
		if math.Float64bits(res.Makespan) != math.Float64bits(ref.makespan[i]) || math.Float64bits(res.Energy) != math.Float64bits(ref.energy[i]) {
			return fmt.Errorf("cell %d (%s/%s) does not repeat: makespan %v vs %v, energy %v vs %v", i, m.cells[i].w.Name, m.cells[i].pol,
				res.Makespan, ref.makespan[i], res.Energy, ref.energy[i])
		}
	}
	return nil
}

// sameOutputs reports whether two repetitions simulated the same thing.
func sameOutputs(a, b *simRep) bool {
	for i := range a.makespan {
		if math.Float64bits(a.makespan[i]) != math.Float64bits(b.makespan[i]) || math.Float64bits(a.energy[i]) != math.Float64bits(b.energy[i]) {
			return false
		}
	}
	return true
}

// The matrix is repeated for simWarmFor before the window (a fixed time,
// so that setup_s is not the host's speed at five repetitions), and a
// window must hold simMinReps repetitions of every cell.
const (
	simWarmFor = 200 * time.Millisecond
	simMinReps = 50
)

// simRun is one measured window of matrix repetitions.
type simRun struct {
	reps    []*simRep
	repMS   []float64 // ascending, host time of each repetition
	windowS float64
}

func loopMatrix(m *simMatrix, c *runCtx, window time.Duration, keep bool) (*simRun, error) {
	run := &simRun{}
	start := time.Now()
	for time.Since(start) < window {
		r, err := m.rep(c, len(run.reps), keep)
		if err != nil {
			return nil, err
		}
		if len(run.reps) > 0 && !sameOutputs(run.reps[0], r) {
			return nil, fmt.Errorf("repetition %d simulated different makespans or energies than repetition 0", len(run.reps))
		}
		run.reps = append(run.reps, r)
		run.repMS = append(run.repMS, r.wallS*1e3)
	}
	run.windowS = time.Since(start).Seconds()
	sort.Float64s(run.repMS)
	return run, nil
}

// policyTotals sums simulated energy and makespan per policy over one
// repetition.
func (m *simMatrix) policyTotals(r *simRep) (energy, makespan map[string]float64) {
	energy, makespan = map[string]float64{}, map[string]float64{}
	for i, cell := range m.cells {
		energy[cell.pol] += r.energy[i]
		makespan[cell.pol] += r.makespan[i]
	}
	return energy, makespan
}

// savings is the paper's headline pair over the matrix: energy saved by
// eewa against cilk, and the makespan it cost, both in percent.
func (m *simMatrix) savings(r *simRep) (savingPct, slowdownPct float64) {
	e, ms := m.policyTotals(r)
	return 100 * (1 - e[policy.IDEEWA]/e[policy.IDCilk]), 100 * (ms[policy.IDEEWA]/ms[policy.IDCilk] - 1)
}

// cellTimes is every cell's host time, in milliseconds and in matrix
// order: the fastest of its repetitions. A simulation is single-threaded
// and deterministic, every repetition of a cell does the same work, and
// what differs between two of them is what the shared host added. It adds
// time and never takes any away: over twenty-second windows on the
// reference host the sum of the cells' minima stayed within 2.4 %
// (28.3-29.0 ms a pass) while the sum of their lower deciles moved by
// 18 % and of their medians by 30 % with the neighbours' load.
func (run *simRun) cellTimes(cells int) []float64 {
	ms := make([]float64, cells)
	for i := range ms {
		fastest := run.reps[0].hostNS[i]
		for _, r := range run.reps[1:] {
			fastest = min(fastest, r.hostNS[i])
		}
		ms[i] = float64(fastest) / 1e6
	}
	return ms
}

func runSim(c *runCtx, build func() (*simMatrix, error)) (*outcome, error) {
	warm := func() (*simMatrix, error) {
		m, err := build()
		if err != nil {
			return nil, err
		}
		for t0 := time.Now(); time.Since(t0) < simWarmFor; {
			if _, err := m.rep(c, 0, false); err != nil {
				return nil, err
			}
		}
		runtime.GC()
		return m, nil
	}
	if c.rec != nil {
		return traceSim(c, warm)
	}
	m, setupS, err := setUp(c, warm, func(*simMatrix) {})
	if err != nil {
		return nil, err
	}
	run, err := loopMatrix(m, c, c.window(), false)
	if err != nil {
		return nil, err
	}
	if len(run.reps) < c.floor(simMinReps) {
		return nil, fmt.Errorf("%d repetitions completed, need %d", len(run.reps), simMinReps)
	}
	if err := m.verify(run.reps[0]); err != nil {
		return nil, err
	}
	// The operation is one sched.Run call, one cell of the matrix: op_ms
	// is over the cells, each at its own steady time.
	cellMS := run.cellTimes(len(m.cells))
	passMS := stats.Sum(cellMS)
	sort.Float64s(cellMS)
	allocs := make([]float64, len(run.reps))
	for i, r := range run.reps {
		allocs[i] = float64(r.allocs) / float64(m.tasks)
	}
	out := newOutcome(int64(len(run.reps))*int64(m.tasks), 0)
	out.set(mSetup, setupS)
	out.set(mOp, midMean(cellMS))
	out.set(mGoodput, float64(m.tasks)/(passMS/1e3))
	out.set(mEnergy, stats.Sum(run.reps[0].energy)*1e3/float64(m.tasks))
	out.set(mAllocs, stats.Median(allocs))
	out.notef("%d repetitions of %d sched.Run calls (%d simulated tasks each) in %.2f s of host time; one pass: %.3f ms at each cell's fastest (p95 over the cells %.4f ms), median repetition %.3f ms; rates are per host second, energy is simulated joules",
		len(run.reps), len(m.cells), m.tasks, run.windowS, passMS, quantileSorted(cellMS, 0.95), quantileSorted(run.repMS, 0.50))
	saving, slowdown := m.savings(run.reps[0])
	out.notef("energy_saving_pct %.6f %%, slowdown_pct %.6f %% (eewa against cilk over the matrix, simulated; repeat exactly for one seed)", saving, slowdown)
	return out, nil
}

func runSimTable2(c *runCtx) (*outcome, error) {
	return runSim(c, func() (*simMatrix, error) { return table2Matrix(c.seed), nil })
}
