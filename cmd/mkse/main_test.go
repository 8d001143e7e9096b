package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/store"
)

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"nope"},
		{"server", "-no-such-flag"},
		{"server", "-replica-of", "x"},
		{"server", "-partition", "2/2"},
		{"server", "-log-level", "loud"},
		{"owner", "-levels", "5,1"},
		{"observer"},
		{"observer", "-cloud", "a:1/b:1,c:1/d:1"},
		{"observer", "-cloud", "a:1"},
		{"client"},
		{"client", "frobnicate", "x"},
		{"bench", "-exp", "nope"},
		{"version", "-x"},
	} {
		if code := run(args); code != 2 {
			t.Errorf("mkse %s: exit %d, want 2", strings.Join(args, " "), code)
		}
	}
}

// TestOwnerRejectsLevelsDisagreeingWithState: a restored owner keeps the
// levels it was built with, so a -levels flag that says otherwise is a
// usage error raised before the daemon listens.
func TestOwnerRejectsLevelsDisagreeingWithState(t *testing.T) {
	owner, err := core.NewOwner(core.DefaultParams(), 1) // levels {1}
	if err != nil {
		t.Fatal(err)
	}
	state := filepath.Join(t.TempDir(), "owner.state")
	if err := store.SaveOwnerFile(state, owner); err != nil {
		t.Fatal(err)
	}
	done := make(chan int, 1)
	go func() { done <- run([]string{"owner", "-state", state, "-levels", "1,5", "-listen", "127.0.0.1:0"}) }()
	select {
	case code := <-done:
		if code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("owner started serving despite -levels disagreeing with -state")
	}
}

func TestPartialOKWarnsAndKeepsMatches(t *testing.T) {
	partial := &cluster.PartialError{Partitions: 2, Failures: []cluster.PartitionFailure{
		{Partition: 1, Addr: "h:7003", Err: errors.New("connection refused")},
	}}
	var w bytes.Buffer
	if err := partialOK(&w, fmt.Errorf("search: %w", partial)); err != nil {
		t.Fatalf("partialOK = %v, want nil", err)
	}
	if !strings.Contains(w.String(), "warning") || !strings.Contains(w.String(), "1 (h:7003)") {
		t.Errorf("warning %q does not name partition 1", w.String())
	}
	other := errors.New("dial failed")
	w.Reset()
	if err := partialOK(&w, other); err != other || w.Len() != 0 {
		t.Errorf("partialOK(other) = %v, wrote %q; want the error back and no warning", err, w.String())
	}
}

// TestREADMEFlagTables holds README.md's flag tables to the flag sets:
// every subcommand's table (plus, for a daemon, the shared daemon-flag
// table) names exactly the flags the subcommand registers, and every
// default a table states is the flag's default.
func TestREADMEFlagTables(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	daemonRows := flagTable(t, string(readme), "### Daemon flags")
	for _, c := range commands {
		fs := flag.NewFlagSet(c.name, flag.ContinueOnError)
		c.flags(fs)
		n := 0
		fs.VisitAll(func(*flag.Flag) { n++ })
		if n == 0 {
			continue // mkse version
		}
		rows := flagTable(t, string(readme), "### mkse "+c.name+" ")
		if fs.Lookup("log-level") != nil {
			for name, def := range daemonRows {
				if _, dup := rows[name]; dup {
					t.Errorf("%s: -%s is listed in both its table and the daemon-flag table", c.name, name)
				}
				rows[name] = def
			}
		}
		fs.VisitAll(func(f *flag.Flag) {
			def, ok := rows[f.Name]
			switch {
			case !ok:
				t.Errorf("%s: README has no row for -%s", c.name, f.Name)
			case def != "—" && def != f.DefValue:
				t.Errorf("%s: README states -%s defaults to %q, the flag to %q", c.name, f.Name, def, f.DefValue)
			}
			delete(rows, f.Name)
		})
		for name := range rows {
			t.Errorf("%s: README lists -%s, which the subcommand does not define", c.name, name)
		}
	}
}

// flagTable returns the flag → stated-default rows of the table in the
// README section whose heading line starts with heading.
func flagTable(t *testing.T, readme, heading string) map[string]string {
	t.Helper()
	rows := make(map[string]string)
	inSection := false
	for _, line := range strings.Split(readme, "\n") {
		if !inSection {
			inSection = strings.HasPrefix(line, heading)
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if len(rows) > 0 || strings.HasPrefix(line, "#") {
				break
			}
			continue
		}
		cells := strings.Split(line, "|")
		if name := strings.Trim(strings.TrimSpace(cells[1]), "`"); strings.HasPrefix(name, "-") && !strings.HasPrefix(name, "--") {
			rows[name[1:]] = strings.Trim(strings.TrimSpace(cells[2]), "`")
		}
	}
	if len(rows) == 0 {
		t.Fatalf("README has no flag table under %q", heading)
	}
	return rows
}
