//go:build race

package fft

// raceBuild lets the test that compares measured transform costs skip
// itself under the race detector, whose instrumentation multiplies and
// jitters exactly those timings.
const raceBuild = true
