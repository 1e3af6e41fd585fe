//go:build race

package compose

// raceBuild lets the whole-plate golden test skip itself under the race
// detector, where two ~50 Mpx deflate passes take minutes and exercise
// no code the small plates do not.
const raceBuild = true
