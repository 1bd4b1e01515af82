package event

import "testing"

// FuzzQueue interprets the input as an (op, arg) byte stream driving
// the queue twice: against the sorted-slice oracle (the interpreter of
// TestQueueModelRandomized) and against the calendar queue it replaced
// (the interpreter of TestQueueMatchesCalendarReference), so anything
// the fuzzer finds reproduces as a unit-test seed corpus entry. Run
// for 20 s by CI's check job and for 60 s by the nightly check-long
// job (see Makefile).
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0})                       // schedule, batch
	f.Add([]byte{0, 3, 0, 3, 2, 3, 3, 0})           // same-time pair, burst, batch
	f.Add([]byte{1, 2, 1, 10, 4, 7, 3, 0})          // follow-ups, RunUntil
	f.Add([]byte{1, 0, 1, 0, 2, 24, 3, 0})          // zero-delay follow-ups join the batch
	f.Add([]byte{0, 7, 2, 1, 4, 2, 0, 7, 4, 7})     // same instants again across RunUntil
	f.Add([]byte{1, 120, 2, 120, 3, 0, 5, 3, 3, 0}) // nested follow-ups, fan-out, off-grid deadline
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		m, l := newModel(t), newLockstep(t)
		for i := 0; i+1 < len(data); i += 2 {
			m.applyOp(data[i], data[i+1])
			l.applyOp(data[i], data[i+1])
		}
		m.finish()
		l.finish()
	})
}
