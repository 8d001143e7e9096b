// Command mkse is the deployment's one binary. Each party of the paper's
// Figure 1, plus the failover observer and the experiment driver, is a
// subcommand:
//
//	mkse server   [flags]             the cloud daemon
//	mkse owner    [flags]             the data-owner daemon
//	mkse client   [flags] <verb> ...  the user CLI
//	mkse observer [flags]             the failover daemon
//	mkse bench    [flags]             the paper's experiments
//	mkse version                      the build stamp
//
// README.md documents every flag. A usage error exits 2 and any other
// failure exits 1; both print "mkse <subcommand>: <error>" to stderr.
//
// Release builds stamp the version and commit through the linker:
//
//	go build -ldflags "-X main.version=v1.2.3 -X main.commit=$(git rev-parse --short HEAD)" ./cmd/mkse
//
// Unstamped builds fall back to the module's VCS metadata when the Go
// toolchain embedded it, and to "dev"/"unknown" otherwise. `mkse version`
// prints the result, and the daemons export it as the mkse_build_info gauge.
package main

import (
	"cmp"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
)

// version and commit are injected with -ldflags -X; see the package comment.
var (
	version = "dev"
	commit  = ""
)

// A command is one subcommand. flags registers its flags on fs and returns
// its body, which runs once fs has parsed the command line.
type command struct {
	name, summary string
	flags         func(fs *flag.FlagSet) func() error
}

var commands = []command{
	{"server", "run the cloud daemon", serverCmd},
	{"owner", "run the data-owner daemon", ownerCmd},
	{"client", "search, retrieve, delete or inspect as a user", clientCmd},
	{"observer", "run the failover daemon", observerCmd},
	{"bench", "regenerate the paper's tables and figures", benchCmd},
	{"version", "print the build stamp", versionCmd},
}

// run parses args over the command's own flag set and runs its body.
func (c command) run(args []string) error {
	fs := flag.NewFlagSet("mkse "+c.name, flag.ContinueOnError)
	body := c.flags(fs)
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	return body()
}

// usageError marks a bad command line: main exits 2 on it, 1 on any other
// error.
type usageError struct{ err error }

func (e usageError) Error() string { return e.err.Error() }
func (e usageError) Unwrap() error { return e.err }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

func main() { os.Exit(run(os.Args[1:])) }

// run executes one mkse command line and returns its exit status.
func run(args []string) int {
	for _, c := range commands {
		if len(args) == 0 || c.name != args[0] {
			continue
		}
		err := c.run(args[1:])
		if err == nil || errors.Is(err, flag.ErrHelp) {
			return 0
		}
		fmt.Fprintf(os.Stderr, "mkse %s: %v\n", c.name, err)
		if errors.As(err, new(usageError)) {
			return 2
		}
		return 1
	}
	if len(args) > 0 {
		fmt.Fprintf(os.Stderr, "mkse: unknown command %q\n", args[0])
	}
	fmt.Fprint(os.Stderr, "usage: mkse <command> [flags] [args]\n\ncommands:\n")
	for _, c := range commands {
		fmt.Fprintf(os.Stderr, "  %-9s %s\n", c.name, c.summary)
	}
	return 2
}

func versionCmd(*flag.FlagSet) func() error {
	return func() error {
		v, c := buildStamp()
		fmt.Printf("mkse %s (commit %s, %s %s/%s)\n", v, c, runtime.Version(), runtime.GOOS, runtime.GOARCH)
		return nil
	}
}

// buildStamp returns the version and commit, backfilling the commit from
// the build's embedded VCS metadata.
func buildStamp() (string, string) {
	c := commit
	if bi, ok := debug.ReadBuildInfo(); ok && c == "" {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				c = s.Value[:min(len(s.Value), 12)]
			}
		}
	}
	return version, cmp.Or(c, "unknown")
}
