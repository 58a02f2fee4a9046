package server

import (
	"runtime"
	"syscall"
)

// yieldProcessor gives up the CPU to other threads (sched_yield), then lets
// goroutines queued on this P run.
func yieldProcessor() {
	_, _, _ = syscall.Syscall(syscall.SYS_SCHED_YIELD, 0, 0, 0) // cannot fail
	runtime.Gosched()
}
