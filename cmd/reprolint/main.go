// Command reprolint is the repo's custom static-analysis suite: eight
// analyzers that prove the determinism, cache-key, concurrency and
// streaming invariants the whole service architecture rests on, at
// compile time instead of at runtime.
//
//	keycomplete   every scenario field is read while resolving the
//	              (spec, plan) pair the cache key encodes, or carries
//	              a //repro:nokey exclusion annotation
//	determinism   no wall clock, no unseeded randomness, no
//	              order-leaking map iteration in simulation packages
//	              (single audited sites: //repro:nondet-ok <reason>)
//	strictdecode  every request-body json.Decoder disallows unknown
//	              fields before decoding
//	nilrecorder   every obs.Recorder method keeps its nil guard
//	ctxflow       blocking loops consult their context; goroutine
//	              launches receive one or carry //repro:detached
//	goroleak      every goroutine has a join edge (WaitGroup, channel
//	              close, result send) on all paths to return
//	streamdone    NDJSON handlers end every path with exactly one
//	              terminal done/error envelope, flushed
//	hotpath       //repro:hot functions stay allocation-free in their
//	              loop bodies (no fmt, reflect, maps, closures, boxing)
//
// The last four are flow-sensitive: they share the internal/lint/cfg
// basic-block graph and its "on every path to return" query.
//
// Two ways to run it, both offline and dependency-free:
//
//	go run ./cmd/reprolint ./...        # standalone (what `make lint` does)
//	go vet -vettool=$(pwd)/reprolint ./...   # as a vet tool
//
// Standalone mode loads packages through `go list -export`; vet-tool
// mode speaks cmd/go's unit-checking protocol (-V=full, -flags, and a
// vet.cfg per package).  Diagnostics go to stderr as
// file:line:col: analyzer: message, and any finding exits nonzero.
// Standalone mode also takes -timings, which reports per-analyzer wall
// time to stderr so a slow analyzer is visible in CI logs.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/lint"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/determinism"
	"repro/internal/lint/goroleak"
	"repro/internal/lint/hotpath"
	"repro/internal/lint/keycomplete"
	"repro/internal/lint/nilrecorder"
	"repro/internal/lint/streamdone"
	"repro/internal/lint/strictdecode"
)

// version is stamped via -ldflags "-X main.version=...": cmd/go
// requires a "name version v..." line from -V=full for its build
// cache fingerprint.
var version = "v0.1.0"

// analyzers is the suite, in reporting order.
var analyzers = []*lint.Analyzer{
	keycomplete.Analyzer,
	determinism.Analyzer,
	strictdecode.Analyzer,
	nilrecorder.Analyzer,
	ctxflow.Analyzer,
	goroleak.Analyzer,
	streamdone.Analyzer,
	hotpath.Analyzer,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr *os.File) int {
	// cmd/go protocol probes.
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		fmt.Fprintf(stdout, "reprolint version %s\n", version)
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Fprintln(stdout, "[]") // no analyzer flags
		return 0
	}
	// Unit-checking mode: the single argument is a vet.cfg file.
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		return runVet(args[0], stderr)
	}

	patterns := args
	timings := false
	if len(patterns) > 0 && patterns[0] == "-timings" {
		timings = true
		patterns = patterns[1:]
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, elapsed, err := runStandalone(".", patterns, timings)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if timings {
		fmt.Fprintln(stderr, "reprolint timings:")
		for _, a := range analyzers {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, elapsed[a.Name].Round(time.Millisecond))
		}
	}
	for _, d := range diags {
		fmt.Fprintln(stderr, d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "reprolint: %d finding(s)\n", len(diags))
		return 1
	}
	return 0
}

// runStandalone loads the module packages matching patterns and runs
// the full suite over each.  With timings set, analyzers run one at a
// time so each one's wall time is attributable; lint.Sort keeps the
// diagnostic order identical either way.
func runStandalone(dir string, patterns []string, timings bool) ([]lint.Diagnostic, map[string]time.Duration, error) {
	pkgs, err := lint.Load(dir, patterns...)
	if err != nil {
		return nil, nil, err
	}
	var all []lint.Diagnostic
	elapsed := map[string]time.Duration{}
	for _, pkg := range pkgs {
		if timings {
			for _, a := range analyzers {
				start := time.Now() //repro:nondet-ok lint timings are telemetry, not simulation state
				diags, err := lint.Run(pkg, []*lint.Analyzer{a})
				elapsed[a.Name] += time.Since(start) //repro:nondet-ok lint timings are telemetry, not simulation state
				if err != nil {
					return nil, nil, err
				}
				all = append(all, diags...)
			}
			continue
		}
		diags, err := lint.Run(pkg, analyzers)
		if err != nil {
			return nil, nil, err
		}
		all = append(all, diags...)
	}
	lint.Sort(all)
	return all, elapsed, nil
}
