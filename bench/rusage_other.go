//go:build !unix

package main

// peakRSSMiB is not available without getrusage.
func peakRSSMiB() float64 { return 0 }
