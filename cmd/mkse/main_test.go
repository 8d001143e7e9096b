package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"mkse/internal/cluster"
	"mkse/internal/core"
	"mkse/internal/protocol"
	"mkse/internal/service"
	"mkse/internal/store"
	"mkse/internal/trace"
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
		{"client", "-dial-timeout", "0", "stats"},
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

// TestOwnerPersistsEnrollmentBeforeReply: an enrollment the owner has
// acknowledged is already in its -state file, so the owner dying before
// its shutdown save does not forget the user. The file is read while the
// daemon still runs, before any shutdown save.
func TestOwnerPersistsEnrollmentBeforeReply(t *testing.T) {
	state := filepath.Join(t.TempDir(), "owner.state")
	// The owner has fresh keys and nothing to upload; with no cloud to
	// count it only warns and serves.
	addr, noCloud := freeAddr(t), freeAddr(t)
	done := make(chan int, 1)
	go func() {
		done <- run([]string{"owner", "-state", state, "-listen", addr, "-cloud", noCloud, "-log-level", "error"})
	}()
	waitListening(t, addr)
	defer func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		select {
		case code := <-done:
			if code != 0 {
				t.Errorf("owner exited %d after SIGTERM, want 0", code)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("owner did not stop on SIGTERM")
		}
	}()

	key, err := core.NewSigningKey(core.DefaultParams().RSABits)
	if err != nil {
		t.Fatal(err)
	}
	// Several users enroll at once, so their saves race each other.
	users := []string{"durable-0", "durable-1", "durable-2", "durable-3"}
	var wg sync.WaitGroup
	for _, id := range users {
		wg.Add(1)
		go func() {
			defer wg.Done()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			resp, err := protocol.NewConn(conn).Roundtrip(&protocol.Message{EnrollReq: &protocol.EnrollRequest{
				UserID: id, UserPub: protocol.FromPublicKey(key.Public()),
			}})
			if err != nil || resp.EnrollResp == nil {
				t.Errorf("enroll %s: resp %+v, err %v", id, resp, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	restored, err := store.LoadOwnerFile(state)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("after a crash")
	sig, err := key.Sign(msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range users {
		if err := restored.VerifyUser(id, msg, sig); err != nil {
			t.Errorf("acknowledged enrollment missing from the state file: %v", err)
		}
	}
}

// TestPropagatedTraceHonoredWithoutSampling: daemons started without
// -trace-sample still continue a sampled context a client propagates, so
// a forced TraceSearch gets the server's dispatch and scan spans back.
func TestPropagatedTraceHonoredWithoutSampling(t *testing.T) {
	cloud, owner := freeAddr(t), freeAddr(t)
	exits := make(chan int, 2)
	go func() { exits <- run([]string{"server", "-listen", cloud, "-log-level", "error"}) }()
	waitListening(t, cloud)
	go func() {
		exits <- run([]string{"owner", "-listen", owner, "-cloud", cloud, "-synthetic", "20", "-log-level", "error"})
	}()
	waitListening(t, owner)
	// Both daemons stop on the one SIGTERM, as they would under a process
	// supervisor; each has its handler installed once it listens.
	defer func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			select {
			case code := <-exits:
				if code != 0 {
					t.Errorf("daemon exited %d after SIGTERM, want 0", code)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not stop on SIGTERM")
			}
		}
	}()

	client, err := service.Dial("trace-no-sample", owner, cloud)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	client.Tracer = trace.New("client", 0, nil)
	_, spans, err := client.TraceSearch([]string{"kw00001"}, 5)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, sp := range spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"client:search", "server:search", "scan"} {
		if !names[want] {
			t.Errorf("trace has no %q span:\n%s", want, trace.FormatTree(spans))
		}
	}
}

// TestOwnerWithFreshKeysRefusesPopulatedCloud: an owner that restored no
// -state holds fresh bin keys, so a cloud already holding documents it did
// not upload would silently match nothing. It exits 1 before listening.
func TestOwnerWithFreshKeysRefusesPopulatedCloud(t *testing.T) {
	cloud, first, second := freeAddr(t), freeAddr(t), freeAddr(t)
	exits := make(chan int, 2)
	go func() {
		exits <- run([]string{"server", "-listen", cloud, "-data", t.TempDir(), "-log-level", "error"})
	}()
	waitListening(t, cloud)
	go func() {
		exits <- run([]string{"owner", "-listen", first, "-cloud", cloud, "-synthetic", "60", "-log-level", "error"})
	}()
	waitListening(t, first)
	defer func() {
		if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			select {
			case code := <-exits:
				if code != 0 {
					t.Errorf("daemon exited %d after SIGTERM, want 0", code)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("daemon did not stop on SIGTERM")
			}
		}
	}()

	topo := cluster.Config{Partitions: []cluster.Partition{{Primary: cloud}}}
	if err := checkFreshCloud(topo, 60, slog.Default()); err != nil {
		t.Errorf("the owner that uploaded all 60 documents was refused: %v", err)
	}
	err := checkFreshCloud(topo, 0, slog.Default())
	if err == nil || !strings.Contains(err.Error(), "holds 60 documents") || !strings.Contains(err.Error(), "-state") {
		t.Errorf("refusal %v does not name the 60 documents and -state", err)
	}
	refused := make(chan int, 1)
	go func() { refused <- run([]string{"owner", "-listen", second, "-cloud", cloud, "-log-level", "error"}) }()
	select {
	case code := <-refused:
		if code != 1 {
			t.Fatalf("second owner without -state exited %d, want 1", code)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("second owner without -state started serving a cloud indexed under other keys")
	}
}

// freeAddr returns a loopback address no listener holds right now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// waitListening waits until addr accepts connections.
func waitListening(t *testing.T, addr string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		c, err := net.Dial("tcp", addr)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s is not listening: %v", addr, err)
		}
		time.Sleep(20 * time.Millisecond)
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
	none := &cluster.PartialError{Partitions: 1, Failures: []cluster.PartitionFailure{
		{Partition: 0, Addr: "h:7002", Err: errors.New("connection refused")},
	}}
	w.Reset()
	if err := partialOK(&w, none); err != none || w.Len() != 0 {
		t.Errorf("partialOK(no partition answered) = %v, wrote %q; want the error back and no warning", err, w.String())
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
