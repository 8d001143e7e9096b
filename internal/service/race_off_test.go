//go:build !race

package service

// raceEnabled reports whether the race detector instruments this build.
// Allocation-count assertions are skipped under -race: the detector's
// shadow-memory bookkeeping allocates on paths that are allocation-free in
// a normal build.
const raceEnabled = false
