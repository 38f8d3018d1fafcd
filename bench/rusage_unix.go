//go:build unix

package main

import (
	"runtime"
	"syscall"
)

// peakRSSMiB is this process's peak resident set (ru_maxrss). Each
// workload runs in its own child, so nothing leaks between workloads.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	if runtime.GOOS == "darwin" || runtime.GOOS == "ios" {
		return float64(ru.Maxrss) / (1 << 20) // bytes
	}
	return float64(ru.Maxrss) / 1024 // KiB
}
