//go:build !linux

package rt

import "time"

// sleep blocks the calling worker for d. Only the linux build has a
// measured reason to leave time.Sleep (sleep_linux.go).
func sleep(d time.Duration) { time.Sleep(d) }
