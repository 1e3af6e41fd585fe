//go:build !race

package fft

const raceBuild = false
