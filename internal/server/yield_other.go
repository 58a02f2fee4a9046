//go:build !linux

package server

import "runtime"

// yieldProcessor lets goroutines queued on this P run; other platforms have
// no portable thread yield.
func yieldProcessor() { runtime.Gosched() }
