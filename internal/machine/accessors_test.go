package machine

// Per-core accessors only the tests read; the engines charge and read
// the machine through its totals.

// State returns core id's current activity state.
func (m *Machine) State(id int) CoreState { return m.states[id] }

// PowerOf returns core id's current draw in watts.
func (m *Machine) PowerOf(id int) float64 { return m.power[id] }

// BusyTime returns the seconds core id has spent executing tasks, as of
// the machine's last charge point.
func (m *Machine) BusyTime(id int) float64 { return m.timeIn[id][Busy] }

// SpinTime returns the seconds core id has spent in the steal loop.
func (m *Machine) SpinTime(id int) float64 { return m.timeIn[id][Spinning] }

// HaltTime returns the seconds core id has spent parked.
func (m *Machine) HaltTime(id int) float64 { return m.timeIn[id][Halted] }
