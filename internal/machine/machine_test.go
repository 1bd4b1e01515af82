package machine

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestFreqLadderValidate(t *testing.T) {
	cases := []struct {
		name    string
		ladder  FreqLadder
		wantErr bool
	}{
		{"valid", FreqLadder{2.5, 1.8, 1.3, 0.8}, false},
		{"single", FreqLadder{2.0}, false},
		{"empty", FreqLadder{}, true},
		{"ascending", FreqLadder{1.0, 2.0}, true},
		{"duplicate", FreqLadder{2.0, 2.0}, true},
		{"zero", FreqLadder{2.0, 0}, true},
		{"negative", FreqLadder{2.0, -1}, true},
		{"nan", FreqLadder{math.NaN()}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.ladder.Validate()
			if (err != nil) != tc.wantErr {
				t.Errorf("Validate() err = %v, wantErr %v", err, tc.wantErr)
			}
		})
	}
}

func TestFreqLadderRatio(t *testing.T) {
	f := FreqLadder{2.5, 1.8, 1.3, 0.8}
	if got := f.Ratio(0); got != 1 {
		t.Errorf("Ratio(0) = %g, want 1", got)
	}
	if got, want := f.Ratio(3), 2.5/0.8; math.Abs(got-want) > 1e-12 {
		t.Errorf("Ratio(3) = %g, want %g", got, want)
	}
	if f.Slowest() != 3 {
		t.Errorf("Slowest = %d, want 3", f.Slowest())
	}
}

func TestOpteron16Valid(t *testing.T) {
	cfg := Opteron16()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("Opteron16 preset invalid: %v", err)
	}
	if cfg.Cores != 16 || len(cfg.Freqs) != 4 || cfg.PackageSize != 4 {
		t.Errorf("Opteron16 = %d cores × %d freqs, pkg %d; want 16 × 4, pkg 4",
			cfg.Cores, len(cfg.Freqs), cfg.PackageSize)
	}
	// Dynamic power at F0 is calibrated to 12 W: active = static + 12.
	pm := cfg.Power
	if got := pm.CorePower(Busy, 0, 0, cfg.Freqs); math.Abs(got-14.0) > 1e-9 {
		t.Errorf("active power at F0 = %g, want 14", got)
	}
}

func TestGeneric(t *testing.T) {
	for _, n := range []int{4, 8, 12} {
		cfg := Generic(n)
		if err := cfg.Validate(); err != nil {
			t.Errorf("Generic(%d) invalid: %v", n, err)
		}
		if cfg.Cores != n {
			t.Errorf("Generic(%d).Cores = %d", n, cfg.Cores)
		}
	}
}

func TestUncoupled(t *testing.T) {
	cfg := Uncoupled(Opteron16())
	if cfg.PackageSize != 1 {
		t.Errorf("Uncoupled PackageSize = %d, want 1", cfg.PackageSize)
	}
	if err := cfg.Validate(); err != nil {
		t.Errorf("Uncoupled invalid: %v", err)
	}
}

func TestPowerModelValidate(t *testing.T) {
	good := Opteron16().Power
	if err := good.Validate(4); err != nil {
		t.Fatalf("preset power model rejected: %v", err)
	}
	bad := good
	bad.Volt = []float64{1.0, 1.3, 1.1, 1.0} // increasing at level 1
	if err := bad.Validate(4); err == nil {
		t.Error("non-monotone voltage should be rejected")
	}
	bad = good
	bad.Volt = good.Volt[:2]
	if err := bad.Validate(4); err == nil {
		t.Error("short voltage table should be rejected")
	}
	bad = good
	bad.HaltFrac = 1.5
	if err := bad.Validate(4); err == nil {
		t.Error("HaltFrac > 1 should be rejected")
	}
	bad = good
	bad.Base = -1
	if err := bad.Validate(4); err == nil {
		t.Error("negative base should be rejected")
	}
	bad = good
	bad.Static = 0
	if err := bad.Validate(4); err == nil {
		t.Error("zero static should be rejected")
	}
}

func TestConfigValidate(t *testing.T) {
	cfg := Opteron16()
	cfg.Cores = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero cores should be rejected")
	}
	cfg = Opteron16()
	cfg.DVFSLatency = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative DVFS latency should be rejected")
	}
	cfg = Opteron16()
	cfg.PackageSize = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero package size should be rejected")
	}
}

func TestNewPanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid config should panic")
		}
	}()
	New(Config{})
}

func TestInitialStateHaltedAtF0(t *testing.T) {
	m := New(Opteron16())
	for id := 0; id < 16; id++ {
		if m.State(id) != Halted {
			t.Errorf("core %d starts %v, want halted", id, m.State(id))
		}
		if m.Freq(id) != 0 {
			t.Errorf("core %d starts at level %d, want 0", id, m.Freq(id))
		}
	}
}

func TestEnergyIntegrationPiecewise(t *testing.T) {
	cfg := Opteron16()
	m := New(cfg)
	pm := cfg.Power

	// Core 0: halted at F0 for 10 s, busy at F0 for 5 s, busy at F3 for 8 s.
	m.SetState(10, 0, Busy)
	m.SetFreq(15, 0, 3)
	m.SetState(23, 0, Halted)
	m.Sync(23)

	// Core 0's package peers stay at F0, so its voltage stays at level 0
	// throughout (package coupling).
	want := 10*pm.CorePower(Halted, 0, 0, cfg.Freqs) +
		5*pm.CorePower(Busy, 0, 0, cfg.Freqs) +
		8*pm.CorePower(Busy, 3, 0, cfg.Freqs)
	// Isolate core 0 by subtracting the other 15 halted-at-F0 cores.
	others := 23 * 15 * pm.CorePower(Halted, 0, 0, cfg.Freqs)
	if got := m.CoreEnergyAt(23) - others; math.Abs(got-want) > 1e-9 {
		t.Errorf("core-0 energy = %g J, want %g J", got, want)
	}
	if got := m.BusyTime(0); math.Abs(got-13) > 1e-9 {
		t.Errorf("busy time = %g, want 13", got)
	}
	if got := m.HaltTime(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("halt time = %g, want 10", got)
	}
}

func TestPackageVoltageCoupling(t *testing.T) {
	cfg := Opteron16()
	m := New(cfg)
	pm := cfg.Power

	// Core 1 down-clocked to F3 while package peer core 0 stays at F0:
	// core 1 pays F3 frequency at F0 *voltage*.
	m.SetFreq(0, 1, 3)
	m.SetState(0, 1, Busy)
	wantCoupled := pm.CorePower(Busy, 3, 0, cfg.Freqs)
	if got := m.PowerOf(1); math.Abs(got-wantCoupled) > 1e-9 {
		t.Errorf("coupled power = %g, want %g (F3 freq at F0 voltage)", got, wantCoupled)
	}

	// Down-clock the whole package: now the plane drops to F3 voltage.
	for id := 0; id < 4; id++ {
		m.SetFreq(1, id, 3)
	}
	wantUncoupled := pm.CorePower(Busy, 3, 3, cfg.Freqs)
	if got := m.PowerOf(1); math.Abs(got-wantUncoupled) > 1e-9 {
		t.Errorf("package-slow power = %g, want %g", got, wantUncoupled)
	}
	if wantUncoupled >= wantCoupled {
		t.Error("dropping the plane voltage must reduce power")
	}
}

func TestUncoupledMachineIgnoresPeers(t *testing.T) {
	cfg := Uncoupled(Opteron16())
	m := New(cfg)
	m.SetFreq(0, 1, 3)
	m.SetState(0, 1, Busy)
	want := cfg.Power.CorePower(Busy, 3, 3, cfg.Freqs)
	if got := m.PowerOf(1); math.Abs(got-want) > 1e-9 {
		t.Errorf("uncoupled power = %g, want %g", got, want)
	}
}

func TestMachineEnergyIncludesBase(t *testing.T) {
	cfg := Opteron16()
	m := New(cfg)
	haltP := cfg.Power.CorePower(Halted, 0, 0, cfg.Freqs)
	want := 100 * (cfg.Power.Base + 16*haltP)
	if got := m.EnergyAt(100); math.Abs(got-want) > 1e-6 {
		t.Errorf("machine energy = %g, want %g", got, want)
	}
	wantCore := 100 * 16 * haltP
	if got := m.CoreEnergyAt(100); math.Abs(got-wantCore) > 1e-6 {
		t.Errorf("core-only energy = %g, want %g", got, wantCore)
	}
}

func TestSpinCostsActivePower(t *testing.T) {
	cfg := Opteron16()
	m := New(cfg)
	m.SetState(0, 0, Spinning)
	if got, want := m.PowerOf(0), cfg.Power.CorePower(Busy, 0, 0, cfg.Freqs); math.Abs(got-want) > 1e-9 {
		t.Errorf("spinning power = %g, want active power %g (the inefficiency EEWA attacks)", got, want)
	}
	m.Sync(10)
	if got := m.SpinTime(0); math.Abs(got-10) > 1e-9 {
		t.Errorf("spin time = %g, want 10", got)
	}
}

func TestHaltCheaperThanSpin(t *testing.T) {
	cfg := Opteron16()
	m := New(cfg)
	if !(m.Config.Power.CorePower(Halted, 3, 3, cfg.Freqs) <
		m.Config.Power.CorePower(Spinning, 3, 3, cfg.Freqs)) {
		t.Error("halting must be cheaper than spinning at the same level")
	}
}

func TestSetFreqCountsTransitions(t *testing.T) {
	m := New(Opteron16())
	m.SetFreq(0, 0, 2)
	m.SetFreq(1, 0, 2) // no-op: same level
	m.SetFreq(2, 0, 0)
	if m.DVFSTransitions != 2 {
		t.Errorf("DVFSTransitions = %d, want 2", m.DVFSTransitions)
	}
}

func TestFreqCensus(t *testing.T) {
	m := New(Opteron16())
	for i := 0; i < 5; i++ {
		m.SetFreq(0, i, 0)
	}
	for i := 5; i < 16; i++ {
		m.SetFreq(0, i, 3)
	}
	census := m.FreqCensus()
	want := []int{5, 0, 0, 11}
	for j := range want {
		if census[j] != want[j] {
			t.Errorf("census[%d] = %d, want %d", j, census[j], want[j])
		}
	}
}

func TestTotalTimes(t *testing.T) {
	m := New(Opteron16())
	m.SetState(0, 0, Busy)
	m.SetState(0, 1, Spinning)
	m.Sync(5)
	if got := m.TotalBusyTime(); math.Abs(got-5) > 1e-9 {
		t.Errorf("TotalBusyTime = %g, want 5", got)
	}
	if got := m.TotalSpinTime(); math.Abs(got-5) > 1e-9 {
		t.Errorf("TotalSpinTime = %g, want 5", got)
	}
	if got := m.TotalHaltTime(); math.Abs(got-5*14) > 1e-9 {
		t.Errorf("TotalHaltTime = %g, want 70", got)
	}
}

func TestTimeBackwardsPanics(t *testing.T) {
	m := New(Opteron16())
	m.SetState(10, 0, Busy)
	defer func() {
		if recover() == nil {
			t.Error("going back in time should panic")
		}
	}()
	m.SetState(5, 0, Halted)
}

func TestInvalidFreqPanics(t *testing.T) {
	m := New(Opteron16())
	defer func() {
		if recover() == nil {
			t.Error("invalid frequency level should panic")
		}
	}()
	m.SetFreq(0, 0, 9)
}

// Property: running a whole package busy at a lower frequency for
// proportionally longer time (same work) never costs more core energy
// than the fast level — the premise behind Fig. 1(b).
func TestSlowAndLongSavesEnergyProperty(t *testing.T) {
	cfg := Opteron16()
	f := func(workRaw uint16, levelRaw uint8) bool {
		work := float64(workRaw%1000+1) / 100.0 // seconds at F0
		level := int(levelRaw) % len(cfg.Freqs)

		fast := New(cfg)
		for id := 0; id < 4; id++ {
			fast.SetState(0, id, Busy)
		}
		eFast := fast.CoreEnergyAt(work)

		slow := New(cfg)
		for id := 0; id < 4; id++ {
			slow.SetFreq(0, id, level)
			slow.SetState(0, id, Busy)
		}
		eSlow := slow.CoreEnergyAt(work * cfg.Freqs.Ratio(level))
		// Compare only the active package's four cores; the idle 12
		// halted cores contribute more in the slow run purely from its
		// longer duration, which is a real effect but not the one under
		// test — so measure with the idle cores' contribution removed.
		idleP := cfg.Power.CorePower(Halted, 0, 0, cfg.Freqs)
		eFast -= 12 * idleP * work
		eSlow -= 12 * idleP * work * cfg.Freqs.Ratio(level)
		return eSlow <= eFast+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: energy integration is additive — charging in two steps
// equals charging in one.
func TestEnergyAdditivityProperty(t *testing.T) {
	cfg := Opteron16()
	f := func(aRaw, bRaw uint16) bool {
		a := float64(aRaw%1000) / 10
		b := float64(bRaw%1000) / 10
		one := New(cfg)
		one.SetState(0, 0, Busy)
		eOne := one.CoreEnergyAt(a + b)

		two := New(cfg)
		two.SetState(0, 0, Busy)
		two.Sync(a) // forces a charge at t=a
		eTwo := two.CoreEnergyAt(a + b)
		return math.Abs(eOne-eTwo) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCoreStateString(t *testing.T) {
	if Busy.String() != "busy" || Spinning.String() != "spinning" || Halted.String() != "halted" {
		t.Error("CoreState String() labels wrong")
	}
	if CoreState(42).String() == "" {
		t.Error("unknown state should still stringify")
	}
}

// Tiered builds the heterogeneous cluster ladders: shard i loses the
// top i rungs but always keeps at least two, the voltage table stays
// in step with the ladder, and the result still validates.
func TestTiered(t *testing.T) {
	base := Opteron16()
	if got := Tiered(base, 0); got.Name != base.Name || len(got.Freqs) != len(base.Freqs) {
		t.Errorf("shard 0 must keep the full ladder: %+v", got)
	}
	for shard := 1; shard < len(base.Freqs)+3; shard++ {
		c := Tiered(base, shard)
		if err := c.Validate(); err != nil {
			t.Fatalf("shard %d: tiered config invalid: %v", shard, err)
		}
		wantDrop := shard
		if max := len(base.Freqs) - 2; wantDrop > max {
			wantDrop = max
		}
		if len(c.Freqs) != len(base.Freqs)-wantDrop {
			t.Errorf("shard %d: %d rungs, want %d", shard, len(c.Freqs), len(base.Freqs)-wantDrop)
		}
		if len(c.Freqs) < 2 {
			t.Errorf("shard %d: ladder shrank below 2 rungs (no DVFS left)", shard)
		}
		if c.Freqs[0] != base.Freqs[wantDrop] {
			t.Errorf("shard %d: fastest rung %g, want %g", shard, c.Freqs[0], base.Freqs[wantDrop])
		}
		if len(c.Power.Volt) != len(c.Freqs) {
			t.Errorf("shard %d: %d voltages for %d rungs", shard, len(c.Power.Volt), len(c.Freqs))
		}
	}
	// The base config is never mutated through the returned copies.
	c := Tiered(base, 1)
	c.Freqs[0] = 99
	c.Power.Volt[0] = 99
	if base.Freqs[1] == 99 || base.Power.Volt[1] == 99 {
		t.Error("Tiered aliases the base ladder")
	}
}

// SplitLadders is the one ladder-split rule: uniform hands every shard
// the base machine, tiered shard i Tiered(base, i), and any other name
// is an error.
func TestSplitLadders(t *testing.T) {
	base := Opteron16()
	for _, split := range []string{SplitUniform, SplitTiered} {
		mcs, err := SplitLadders(split, base, 3)
		if err != nil || len(mcs) != 3 {
			t.Fatalf("%s: %d machines, %v; want 3", split, len(mcs), err)
		}
		for i, mc := range mcs {
			want := base
			if split == SplitTiered {
				want = Tiered(base, i)
			}
			if !reflect.DeepEqual(mc, want) {
				t.Errorf("%s shard %d: %+v, want %+v", split, i, mc, want)
			}
		}
	}
	if _, err := SplitLadders("bogus", base, 3); err == nil {
		t.Error("an unknown ladder split should be an error")
	}
}
