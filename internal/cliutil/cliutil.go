// Package cliutil holds what the mkse commands share: Parse with its
// -version flag, small flag-parsing helpers, and the Daemon scaffold the
// three daemons are built on.
//
// Release builds stamp the version and commit through the linker:
//
//	go build -ldflags "-X mkse/internal/cliutil.version=v1.2.3 \
//	                   -X mkse/internal/cliutil.commit=$(git rev-parse --short HEAD)" ./cmd/...
//
// Unstamped builds fall back to the module's VCS metadata when the Go
// toolchain embedded it, and to "dev"/"unknown" otherwise. Every binary
// prints the result with -version, and the daemons also export it as the
// mkse_build_info gauge, so a fleet's deployed versions can be inventoried
// from Prometheus alone.
package cliutil

import (
	"fmt"
	"strconv"
	"strings"

	"mkse/internal/rank"
)

// ParseLevels parses a comma-separated ascending threshold list ("1,5,10")
// into ranking levels.
func ParseLevels(s string) (rank.Levels, error) {
	ints, err := ParseInts(s)
	if err != nil {
		return nil, err
	}
	lv := rank.Levels(ints)
	if err := lv.Validate(); err != nil {
		return nil, err
	}
	return lv, nil
}

// ParseInts parses a comma-separated list of positive integers.
func ParseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		n, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid value %q (want positive integers, comma-separated)", p)
		}
		out = append(out, n)
	}
	return out, nil
}
