//go:build linux

package rt

import (
	"syscall"
	"time"
)

// sleep blocks the calling worker for d by nanosleep(2) on its own
// thread; the package comment says why not time.Sleep. A signal — the
// runtime's own preemption signal included — ends nanosleep early with
// EINTR and the time still owed, so the call is resumed until nothing
// is owed.
func sleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	var rem syscall.Timespec
	for syscall.Nanosleep(&ts, &rem) == syscall.EINTR {
		ts = rem
	}
}
