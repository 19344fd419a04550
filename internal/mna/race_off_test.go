//go:build !race

package mna

// raceDetector reports a -race build (see race_on_test.go).
const raceDetector = false
