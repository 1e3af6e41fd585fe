//go:build !race

package compose

const raceBuild = false
