package main

import (
	"flag"
	"fmt"
	"strconv"
	"strings"

	"mkse/internal/core"
	"mkse/internal/rank"
)

// parseLevels parses a comma-separated ascending threshold list ("1,5,10")
// into ranking levels.
func parseLevels(s string) (rank.Levels, error) {
	ints, err := parseInts(s)
	if err != nil {
		return nil, err
	}
	lv := rank.Levels(ints)
	return lv, lv.Validate()
}

// parseInts parses a comma-separated list of positive integers.
func parseInts(s string) ([]int, error) {
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

// levelsFlag registers the -levels flag the server and the owner share.
func levelsFlag(fs *flag.FlagSet) *string {
	return fs.String("levels", "1", "comma-separated ranking thresholds (η levels)")
}

// schemeParams returns the scheme's default parameters with the -levels
// thresholds; a bad list is a usage error.
func schemeParams(levels string) (core.Params, error) {
	lv, err := parseLevels(levels)
	if err != nil {
		return core.Params{}, usageError{err}
	}
	return core.DefaultParams().WithLevels(lv), nil
}
