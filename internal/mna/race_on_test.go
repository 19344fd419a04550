//go:build race

package mna

// raceDetector reports a -race build: the random differential test, which
// runs on one goroutine, then checks a tenth of its circuits.
const raceDetector = true
