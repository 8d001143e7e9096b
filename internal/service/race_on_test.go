//go:build race

package service

// See race_off_test.go.
const raceEnabled = true
