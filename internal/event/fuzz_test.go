package event

import "testing"

// FuzzQueue interprets the input as an (op, arg) byte stream driving
// the queue and the sorted-slice oracle in lockstep — the same
// interpreter as TestQueueModelRandomized, so anything the fuzzer
// finds reproduces as a unit-test seed corpus entry. Wired into the
// nightly check-long job (see Makefile).
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 4, 0})                   // schedule, step
	f.Add([]byte{0, 3, 0, 3, 3, 0, 5, 0})       // same-time pair, cancel, batch
	f.Add([]byte{1, 2, 1, 2, 2, 5, 6, 7})       // fast events, After, RunUntil
	f.Add([]byte{0, 7, 3, 0, 0, 7, 3, 1, 4, 0}) // cancel churn
	f.Add([]byte{2, 0, 2, 0, 5, 0, 0, 1, 6, 3}) // zero-delay After + batch
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 2048 {
			return
		}
		m := newModel(t)
		for i := 0; i+1 < len(data); i += 2 {
			m.applyOp(data[i], data[i+1])
		}
		m.finish()
	})
}
