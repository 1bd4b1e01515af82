// Package machine models a multi-core processor with per-core Dynamic
// Voltage and Frequency Scaling (DVFS), the hardware substrate the EEWA
// paper evaluates on (four quad-core AMD Opteron 8380 packages: 16
// cores, each able to run at 2.5, 1.8, 1.3 or 0.8 GHz).
//
// The model has four ingredients:
//
//   - a frequency ladder F0 > F1 > … > F(r-1) (GHz);
//   - a power model P = Static + k·f·V², with a per-level voltage
//     table and a whole-machine base draw (the paper measures wall
//     power, so uncore/memory/fan power is part of every reading);
//   - package-level voltage coupling: on the Opteron 8380, frequency
//     is per-core but the voltage plane is per-package, so a package's
//     voltage is set by its fastest member. This is why merely
//     down-clocking idle cores scattered among busy ones (Cilk-D)
//     saves only f-linear power, while EEWA's c-groups — which this
//     runtime lays out contiguously, aligning them with packages —
//     unlock the full f·V² saving;
//   - per-core activity states that integrate energy exactly as the
//     simulated clock advances.
//
// Core states distinguish *busy* (executing a task), *spinning*
// (actively hunting for work — in classic work stealing an idle core
// polls victim queues at full power, which is precisely the waste EEWA
// attacks) and *halted* (parked at low power).
package machine

import (
	"fmt"
	"math"
	"slices"
)

// CoreState is the activity state of a simulated core.
type CoreState int

const (
	// Busy means the core is executing a task: full active power.
	Busy CoreState = iota
	// Spinning means the core is executing the steal loop: it burns
	// active power but performs no useful work.
	Spinning
	// Halted means the core is parked (monitor/mwait or deep C-state):
	// leakage plus a small fraction of dynamic power.
	Halted
)

// nStates is the number of CoreState values; per-state arrays and the
// power table are sized by it.
const nStates = int(Halted) + 1

// String implements fmt.Stringer for diagnostics.
func (s CoreState) String() string {
	switch s {
	case Busy:
		return "busy"
	case Spinning:
		return "spinning"
	case Halted:
		return "halted"
	default:
		return fmt.Sprintf("CoreState(%d)", int(s))
	}
}

// FreqLadder is the list of available core frequencies in GHz, in
// strictly descending order: index 0 is F0, the fastest.
type FreqLadder []float64

// Validate checks the ladder is non-empty, positive and strictly
// descending (the paper's F_i > F_j for i < j).
func (f FreqLadder) Validate() error {
	if len(f) == 0 {
		return fmt.Errorf("machine: empty frequency ladder")
	}
	for i, v := range f {
		if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("machine: invalid frequency %g at index %d", v, i)
		}
		if i > 0 && v >= f[i-1] {
			return fmt.Errorf("machine: ladder not strictly descending at index %d (%g >= %g)", i, v, f[i-1])
		}
	}
	return nil
}

// Slowest returns the index of the lowest frequency, r-1.
func (f FreqLadder) Slowest() int { return len(f) - 1 }

// Ratio returns F0/Fj, the slowdown factor of level j relative to the
// fastest level — the factor used both in Eq. 1 normalization and in
// the CC table (Table I).
func (f FreqLadder) Ratio(j int) float64 { return f[0] / f[j] }

// PowerModel parameterizes per-core power as Static + DynCoeff·f·V².
type PowerModel struct {
	// Static is per-core leakage in watts, paid in every state.
	Static float64
	// DynCoeff is k in the dynamic power term k·f·V² (watts per
	// GHz·V²).
	DynCoeff float64
	// Volt is the per-frequency-level supply voltage in volts; it must
	// be non-increasing down the ladder.
	Volt []float64
	// HaltFrac is the fraction of the dynamic term a Halted core still
	// draws (clock gating is imperfect).
	HaltFrac float64
	// Base is the whole-machine constant draw (uncore, DRAM, fans,
	// PSU losses) that a wall power meter sees regardless of load.
	Base float64
}

// Validate checks the model is consistent with an r-level ladder.
func (p PowerModel) Validate(r int) error {
	if len(p.Volt) != r {
		return fmt.Errorf("machine: voltage table has %d entries, want %d", len(p.Volt), r)
	}
	for j, v := range p.Volt {
		if v <= 0 {
			return fmt.Errorf("machine: non-positive voltage at level %d", j)
		}
		if j > 0 && v > p.Volt[j-1] {
			return fmt.Errorf("machine: voltage not non-increasing at level %d", j)
		}
	}
	if p.Static <= 0 || p.DynCoeff <= 0 {
		return fmt.Errorf("machine: static and dynamic coefficients must be positive")
	}
	if p.HaltFrac < 0 || p.HaltFrac > 1 {
		return fmt.Errorf("machine: HaltFrac %g outside [0,1]", p.HaltFrac)
	}
	if p.Base < 0 {
		return fmt.Errorf("machine: negative base power")
	}
	return nil
}

// CorePower returns the draw of a core in `state` clocked at frequency
// level fLevel while its voltage plane sits at voltage level vLevel
// (vLevel ≤ fLevel when a package peer demands a higher voltage).
func (p PowerModel) CorePower(state CoreState, fLevel, vLevel int, freqs FreqLadder) float64 {
	v := p.Volt[vLevel]
	dyn := p.DynCoeff * freqs[fLevel] * v * v
	if state == Halted {
		return p.Static + p.HaltFrac*dyn
	}
	return p.Static + dyn
}

// Config describes a machine to simulate.
type Config struct {
	Name string
	// Cores is the number of cores (m in the paper).
	Cores int
	// Freqs is the ladder F0..F(r-1) in GHz.
	Freqs FreqLadder
	// Power is the power model.
	Power PowerModel
	// PackageSize is the number of cores sharing a voltage plane.
	// 1 disables coupling (fully independent per-core voltage).
	PackageSize int
	// DVFSLatency is the time (seconds) a core is unavailable while
	// switching frequency. Real parts take tens of microseconds.
	DVFSLatency float64
}

// Validate checks the whole configuration.
func (c Config) Validate() error {
	if c.Cores <= 0 {
		return fmt.Errorf("machine: need at least one core, got %d", c.Cores)
	}
	if err := c.Freqs.Validate(); err != nil {
		return err
	}
	if err := c.Power.Validate(len(c.Freqs)); err != nil {
		return err
	}
	if c.PackageSize <= 0 {
		return fmt.Errorf("machine: package size must be positive, got %d", c.PackageSize)
	}
	if c.DVFSLatency < 0 {
		return fmt.Errorf("machine: negative DVFS latency")
	}
	return nil
}

// Opteron16 returns the paper's evaluation platform: 16 cores in four
// 4-core packages at 2.5/1.8/1.3/0.8 GHz. The wattages are calibrated
// so the *relative* behaviour (Cilk-D saves ~7–13 % over Cilk, EEWA up
// to ~30 %) matches the published curves; see DESIGN.md §2.
func Opteron16() Config {
	freqs := FreqLadder{2.5, 1.8, 1.3, 0.8}
	return Config{
		Name:  "opteron16",
		Cores: 16,
		Freqs: freqs,
		Power: PowerModel{
			Static:   2.0,
			DynCoeff: 12.0 / (2.5 * 1.30 * 1.30), // 12 W dynamic at F0
			Volt:     []float64{1.30, 1.20, 1.10, 1.00},
			HaltFrac: 0.15,
			Base:     120.0,
		},
		PackageSize: 4,
		DVFSLatency: 50e-6,
	}
}

// Generic returns an Opteron-like machine with an arbitrary core count,
// used by the Fig. 9 scalability sweep (4/8/12/16 cores).
func Generic(cores int) Config {
	c := Opteron16()
	c.Name = fmt.Sprintf("generic%d", cores)
	c.Cores = cores
	return c
}

// Uncoupled returns the same machine with per-core voltage planes
// (PackageSize 1) — the ablation knob for quantifying how much of
// EEWA's advantage comes from package-aligned c-groups.
func Uncoupled(cfg Config) Config {
	cfg.Name = cfg.Name + "-uncoupled"
	cfg.PackageSize = 1
	return cfg
}

// Tiered returns shard `shard`'s machine in a tiered cluster built
// from base: shard 0 keeps the full ladder, and each later shard drops
// one more rung off the top (never below two rungs), so the cluster is
// ladder-heterogeneous — the shape the router's "unknown class →
// fastest ladder" rule exists for. The voltage table is truncated in
// step with the ladder; cores, power coefficients and packaging are
// untouched.
func Tiered(base Config, shard int) Config {
	if shard <= 0 || len(base.Freqs) <= 2 {
		return base
	}
	drop := shard
	if max := len(base.Freqs) - 2; drop > max {
		drop = max
	}
	c := base
	c.Name = fmt.Sprintf("%s-tier%d", base.Name, drop)
	c.Freqs = append(FreqLadder(nil), base.Freqs[drop:]...)
	c.Power.Volt = append([]float64(nil), base.Power.Volt[drop:]...)
	return c
}

// Ladder splits: how a cluster of shards built from one base machine
// shares out its frequency ladder. SplitUniform gives every shard the
// base machine's full ladder; SplitTiered gives shard i Tiered(base, i),
// making the cluster heterogeneous.
const (
	SplitUniform = "uniform"
	SplitTiered  = "tiered"
)

// SplitLadders returns each shard's machine in a cluster of shards
// built from base under a ladder split.
func SplitLadders(split string, base Config, shards int) ([]Config, error) {
	if split != SplitUniform && split != SplitTiered {
		return nil, fmt.Errorf("machine: unknown ladder split %q (want %s or %s)", split, SplitUniform, SplitTiered)
	}
	mcs := make([]Config, shards)
	for i := range mcs {
		if mcs[i] = base; split == SplitTiered {
			mcs[i] = Tiered(base, i)
		}
	}
	return mcs, nil
}

// Machine is the runtime state of the simulated hardware: per-core
// frequency levels and activity states, with exact lazy energy
// integration. All mutation goes through SetState/SetFreq so that every
// interval is charged at the correct package-coupled power.
//
// A Machine is not safe for concurrent use; the discrete-event
// simulator is single-threaded by design.
type Machine struct {
	Config Config

	freqs []int
	// volt caches each core's voltage-plane level: the fastest level
	// among its package peers. Only SetFreq moves it.
	volt   []int
	states []CoreState
	// power caches each core's current draw in watts so charge —
	// which runs on every state or frequency change — is a pure
	// multiply-accumulate. It is recomputed only when an input moves:
	// the core's own state, its frequency, or its package's voltage
	// plane (any package peer's frequency).
	power []float64
	// table[(state·r + f)·r + v] is CorePower(state, f, v), precomputed
	// at New, so a refresh is one indexed load.
	table []float64

	lastChange float64
	coreEnergy []float64
	// timeIn[id][s] is the seconds core id has spent in state s.
	timeIn [][nStates]float64

	// DVFSTransitions counts frequency switches, for overhead
	// reporting.
	DVFSTransitions int
}

// New builds a machine in its initial state: every core Halted at F0 at
// time 0. New panics on an invalid config, since an invalid machine
// makes every downstream number meaningless.
func New(cfg Config) *Machine {
	if err := cfg.Validate(); err != nil {
		panic("machine: " + err.Error())
	}
	n, r := cfg.Cores, len(cfg.Freqs)
	// One slab each for the per-core ints and floats; the power table
	// rides in the float slab.
	ints := make([]int, 2*n)
	floats := make([]float64, 2*n+nStates*r*r)
	m := &Machine{
		Config:     cfg,
		freqs:      ints[:n:n],
		volt:       ints[n:],
		states:     make([]CoreState, n),
		power:      floats[:n:n],
		coreEnergy: floats[n : 2*n : 2*n],
		table:      floats[2*n:],
		timeIn:     make([][nStates]float64, n),
	}
	for i := range m.table {
		m.table[i] = cfg.Power.CorePower(CoreState(i/(r*r)), i/r%r, i%r, cfg.Freqs)
	}
	for i := range m.states {
		m.states[i] = Halted
		m.recomputePower(i)
	}
	return m
}

// Freq returns core id's current frequency level.
func (m *Machine) Freq(id int) int { return m.freqs[id] }

// recomputePower refreshes core id's cached draw from the table.
func (m *Machine) recomputePower(id int) {
	r := len(m.Config.Freqs)
	m.power[id] = m.table[(int(m.states[id])*r+m.freqs[id])*r+m.volt[id]]
}

// recomputePackagePower refreshes the voltage level and cached draw of
// every core on id's voltage plane — required after a frequency change,
// which can move the whole plane's voltage. A PackageSize of 1 makes
// each core its own plane.
func (m *Machine) recomputePackagePower(id int) {
	ps := m.Config.PackageSize
	start := (id / ps) * ps
	end := min(start+ps, m.Config.Cores)
	lvl := slices.Min(m.freqs[start:end])
	for c := start; c < end; c++ {
		m.volt[c] = lvl
		m.recomputePower(c)
	}
}

// charge integrates every core's energy from lastChange to now at the
// current powers and advances the timestamp. Whole-machine charging is
// necessary because one core's frequency change can move its package
// peers' voltage, hence their power.
func (m *Machine) charge(now float64) {
	dt := now - m.lastChange
	if dt < 0 {
		panic(fmt.Sprintf("machine: time went backwards (%g -> %g)", m.lastChange, now))
	}
	if dt == 0 {
		return
	}
	// Reslicing to len(states) lets the compiler drop the per-core
	// bounds checks.
	energy, power, timeIn := m.coreEnergy[:len(m.states)], m.power[:len(m.states)], m.timeIn[:len(m.states)]
	for id, s := range m.states {
		energy[id] += dt * power[id]
		timeIn[id][s] += dt
	}
	m.lastChange = now
}

// SetState moves core id to a new activity state at simulated time now.
func (m *Machine) SetState(now float64, id int, s CoreState) {
	m.charge(now)
	m.states[id] = s
	m.recomputePower(id)
}

// SetFreq switches core id to frequency level j at time now, counting
// the transition (no-op transitions are skipped, as real governors
// do). The caller accounts for DVFS latency.
func (m *Machine) SetFreq(now float64, id, j int) {
	if j < 0 || j >= len(m.Config.Freqs) {
		panic(fmt.Sprintf("machine: core %d set to invalid frequency level %d", id, j))
	}
	if m.freqs[id] == j {
		return
	}
	m.charge(now)
	m.freqs[id] = j
	m.recomputePackagePower(id)
	m.DVFSTransitions++
}

// EnergyAt returns whole-machine energy (joules) consumed up to
// simulated time now: all cores plus the base draw — exactly what the
// paper's wall power meter integrates.
func (m *Machine) EnergyAt(now float64) float64 {
	total := m.Config.Power.Base * now
	total += m.CoreEnergyAt(now)
	return total
}

// CoreEnergyAt returns the sum of per-core energies only (no base),
// which isolates the CPU-side effect of a scheduling policy.
func (m *Machine) CoreEnergyAt(now float64) float64 {
	dt := now - m.lastChange
	if dt < 0 {
		panic(fmt.Sprintf("machine: energy queried in the past (%g < %g)", now, m.lastChange))
	}
	total := 0.0
	for id := range m.freqs {
		total += m.coreEnergy[id] + dt*m.power[id]
	}
	return total
}

// TotalBusyTime returns the core-seconds spent executing tasks, as of
// the machine's last charge point.
func (m *Machine) TotalBusyTime() float64 { return m.total(Busy) }

// TotalSpinTime returns the core-seconds spent in the steal loop.
func (m *Machine) TotalSpinTime() float64 { return m.total(Spinning) }

// TotalHaltTime returns the core-seconds spent parked.
func (m *Machine) TotalHaltTime() float64 { return m.total(Halted) }

// total sums the time every core has spent in state s, in core order.
func (m *Machine) total(s CoreState) float64 {
	t := 0.0
	for id := range m.timeIn {
		t += m.timeIn[id][s]
	}
	return t
}

// Sync charges the open interval so that the per-state time counters
// are exact as of now (energy queries do this implicitly; time-counter
// queries need an explicit sync).
func (m *Machine) Sync(now float64) { m.charge(now) }

// ReclassifyBusyAsSpin retroactively moves dt already-integrated
// seconds of core id's time from the Busy counter to the Spinning
// counter. Busy and Spinning draw identical power (only Halted gates
// the dynamic term), so the reclassification cannot change any energy
// figure — it exists so a scheduler that only learns an interval was
// overhead (probe/steal lead) after charging it as Busy can keep the
// busy/spin split truthful without rewinding the clock. The caller
// must Sync (or otherwise charge) through the interval first; moving
// more time than the core has accumulated as Busy panics.
func (m *Machine) ReclassifyBusyAsSpin(id int, dt float64) {
	if dt == 0 {
		return
	}
	if dt < 0 || math.IsNaN(dt) {
		panic(fmt.Sprintf("machine: reclassify negative interval %g", dt))
	}
	t := &m.timeIn[id]
	if dt > t[Busy]+1e-9 {
		panic(fmt.Sprintf("machine: reclassify %g s busy->spin but core %d has only %g s busy",
			dt, id, t[Busy]))
	}
	t[Busy] -= dt
	t[Spinning] += dt
}

// FreqCensus returns how many cores currently sit at each frequency
// level — the quantity plotted per batch in the paper's Fig. 8.
func (m *Machine) FreqCensus() []int {
	census := make([]int, len(m.Config.Freqs))
	for _, f := range m.freqs {
		census[f]++
	}
	return census
}
