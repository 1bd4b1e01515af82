package event

import "testing"

// FuzzQueue interprets the input as an (op, arg) byte stream driving
// the queue and the sorted-slice oracle in lockstep — the same
// interpreter as TestQueueModelRandomized, so anything the fuzzer
// finds reproduces as a unit-test seed corpus entry. Wired into the
// nightly check-long job (see Makefile).
func FuzzQueue(f *testing.F) {
	f.Add([]byte{0, 0, 3, 0})                   // schedule, batch
	f.Add([]byte{0, 3, 0, 3, 2, 3, 3, 0})       // same-time pair, burst, batch
	f.Add([]byte{1, 2, 1, 10, 4, 7, 3, 0})      // follow-ups, RunUntil
	f.Add([]byte{1, 0, 1, 0, 2, 24, 3, 0})      // zero-delay follow-ups join the batch
	f.Add([]byte{0, 7, 2, 1, 4, 2, 0, 7, 4, 7}) // bucket reuse across RunUntil
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
