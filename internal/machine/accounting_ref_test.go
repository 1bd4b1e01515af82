package machine

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// refAccount is the per-state time accounting Machine kept before
// timeIn — three per-core slices, a switch per core in charge, and
// ReclassifyBusyAsSpin moving time between two of them — kept verbatim
// (minus the energy, which did not change) as the reference
// TestTimeSplitMatchesSwitchReference holds timeIn to. freqs mirrors
// the machine's levels only so SetFreq's same-level skip (no charge)
// can be mirrored.
type refAccount struct {
	freqs      []int
	states     []CoreState
	lastChange float64
	busyTime   []float64
	spinTime   []float64
	haltTime   []float64
}

func newRefAccount(n int) *refAccount {
	a := &refAccount{
		freqs:    make([]int, n),
		states:   make([]CoreState, n),
		busyTime: make([]float64, n),
		spinTime: make([]float64, n),
		haltTime: make([]float64, n),
	}
	for i := range a.states {
		a.states[i] = Halted
	}
	return a
}

func (m *refAccount) charge(now float64) {
	dt := now - m.lastChange
	if dt < 0 {
		panic(fmt.Sprintf("machine: time went backwards (%g -> %g)", m.lastChange, now))
	}
	if dt == 0 {
		return
	}
	for id := range m.freqs {
		switch m.states[id] {
		case Busy:
			m.busyTime[id] += dt
		case Spinning:
			m.spinTime[id] += dt
		case Halted:
			m.haltTime[id] += dt
		}
	}
	m.lastChange = now
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// TestTimeSplitMatchesSwitchReference replays random SetState / SetFreq
// / Sync / ReclassifyBusyAsSpin sequences on Opteron16 through Machine
// and refAccount, and requires every per-core and total busy, spin and
// halt time to match bit for bit after every call.
func TestTimeSplitMatchesSwitchReference(t *testing.T) {
	cfg := Opteron16()
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m, ref := New(cfg), newRefAccount(cfg.Cores)
		now := 0.0
		for step := 0; step < 2000; step++ {
			switch rng.Intn(4) {
			case 0: // a zero step half the time: the dt == 0 early return
				now += float64(rng.Intn(2)) * rng.ExpFloat64() * 1e-4
			case 1:
				now += rng.Float64() * 1e-2
			}
			id := rng.Intn(cfg.Cores)
			var op string
			switch rng.Intn(8) {
			case 0, 1, 2:
				s := CoreState(rng.Intn(3))
				op = fmt.Sprintf("SetState(%g, %d, %v)", now, id, s)
				m.SetState(now, id, s)
				ref.charge(now)
				ref.states[id] = s
			case 3, 4:
				j := rng.Intn(len(cfg.Freqs))
				op = fmt.Sprintf("SetFreq(%g, %d, %d)", now, id, j)
				m.SetFreq(now, id, j)
				if ref.freqs[id] != j {
					ref.charge(now)
					ref.freqs[id] = j
				}
			case 5, 6:
				op = fmt.Sprintf("Sync(%g)", now)
				m.Sync(now)
				ref.charge(now)
			case 7:
				dt := ref.busyTime[id] * rng.Float64()
				op = fmt.Sprintf("ReclassifyBusyAsSpin(%d, %g)", id, dt)
				m.ReclassifyBusyAsSpin(id, dt)
				if dt != 0 {
					ref.busyTime[id] -= dt
					ref.spinTime[id] += dt
				}
			}
			for c := 0; c < cfg.Cores; c++ {
				if !same(m.BusyTime(c), ref.busyTime[c]) || !same(m.SpinTime(c), ref.spinTime[c]) || !same(m.HaltTime(c), ref.haltTime[c]) {
					t.Fatalf("seed %d step %d %s: core %d busy/spin/halt %v/%v/%v, switch reference %v/%v/%v", seed, step, op, c,
						m.BusyTime(c), m.SpinTime(c), m.HaltTime(c), ref.busyTime[c], ref.spinTime[c], ref.haltTime[c])
				}
			}
			if !same(m.TotalBusyTime(), sum(ref.busyTime)) || !same(m.TotalSpinTime(), sum(ref.spinTime)) || !same(m.TotalHaltTime(), sum(ref.haltTime)) {
				t.Fatalf("seed %d step %d %s: totals %v/%v/%v, switch reference %v/%v/%v", seed, step, op,
					m.TotalBusyTime(), m.TotalSpinTime(), m.TotalHaltTime(), sum(ref.busyTime), sum(ref.spinTime), sum(ref.haltTime))
			}
		}
	}
}

func same(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
