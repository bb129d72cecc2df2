// Command e2ebench is the repository's end-to-end benchmark.  It drives
// a freshly started cmd/reprosrv over loopback with one of three seeded
// workloads, checks every response byte for byte against the same
// inputs computed in-process, and prints the metrics BENCHMARK.json
// declares as the last line of its output:
//
//	sh e2ebench/run.sh --workload cold-mix --seed 1 --seconds 10 --trace 0
//
// Workloads:
//
//	cold-mix    closed loop, 1 connection, distinct /v2/run scenarios
//	            over an empty store: generate, simulate, encode, persist
//	hot-zipf    open-loop Poisson ladder of zipf(s=1) requests over
//	            4,096 scenarios whose results are all in the store: the
//	            memory and disk tiers do all the work
//	batch-eval  closed loop, 1 connection, passes of every registered
//	            experiment plus one ~100-point any-axis sweep
//	all         the three in turn
//
// With --trace 0 the result line carries the end-to-end metrics, taken
// with tracing off.  With --trace 1 the run also replays its inputs
// in-process through each layer's public functions, records a span
// around every call, writes them as Chrome trace-event JSON under
// .bench_build/results/, prints a per-layer table and reports the
// per-layer metrics.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

//go:embed digests.json
var digestsJSON []byte

// bench is one invocation's configuration.
type bench struct {
	root      string // checkout root
	daemonBin string
	work      string // work area for this run, removed at exit
	seed      uint64
	seconds   float64
	conns     int
	tr        *tracer
}

func (b *bench) duration() time.Duration { return time.Duration(b.seconds * float64(time.Second)) }

// metric is one reported figure.
type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
	Note    string  `json:"note,omitempty"`
}

// outcome is one workload's outcome.
type outcome struct {
	Workload  string   `json:"workload"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Problems  []string `json:"problems,omitempty"`
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer,omitempty"`
	Env       envStamp `json:"env"`
	Digest    string   `json:"digest"`

	ops, samples int
	out          io.Writer
}

func (r *outcome) add(name string, v float64, unit string, samples int, note string) {
	r.EndToEnd = append(r.EndToEnd, metric{Name: name, Value: v, Unit: unit, Samples: samples, Note: note})
}

func (r *outcome) layer(name string, v float64, unit string) {
	for i := range r.PerLayer {
		if r.PerLayer[i].Name == name {
			r.PerLayer[i].Value = v
			return
		}
	}
	r.PerLayer = append(r.PerLayer, metric{Name: name, Value: v, Unit: unit})
}

// problem records a correctness failure that is not one op's.
func (r *outcome) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// opFailed counts a failed op, keeping the first reasons.
func (r *outcome) opFailed(format string, args ...any) {
	r.Failed++
	if r.Failed <= 5 {
		r.problem(format, args...)
	}
}

func (r *outcome) correct() bool { return r.Failed == 0 && len(r.Problems) == 0 }

// declared is the metric list of BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

var workloads = []string{"cold-mix", "hot-zipf", "batch-eval"}

func main() {
	workload := flag.String("workload", "", "cold-mix, hot-zipf, batch-eval or all")
	seed := flag.Uint64("seed", 1, "workload seed; the committed digests are for seed 1")
	seconds := flag.Float64("seconds", 10, "measured seconds per run")
	trace := flag.Int("trace", 0, "1 adds the traced in-process replay and reports per-layer metrics")
	root := flag.String("root", ".", "checkout root (holds BENCHMARK.json and .bench_build)")
	daemonBin := flag.String("daemon", "", "the reprosrv binary built from the checkout")
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *root, *daemonBin); err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, seconds float64, traced bool, root, daemonBin string) error {
	names := []string{workload}
	if workload == "all" {
		names = workloads
	} else if !slices.Contains(workloads, workload) {
		return fmt.Errorf("unknown workload %q (want %s or all)", workload, strings.Join(workloads, ", "))
	}
	if daemonBin == "" || seconds <= 0 {
		return fmt.Errorf("need -daemon and a positive -seconds")
	}
	raw, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	var decl declared
	if err := json.Unmarshal(raw, &decl); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var digests map[string]string
	if err := json.Unmarshal(digestsJSON, &digests); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	// Every run, its set-up included, must end well inside three minutes.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()

	line := resultLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, name := range names {
		rep, err := runWorkload(ctx, name, seed, seconds, traced, root, daemonBin, digests)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		line.Correct = line.Correct && rep.correct()
		line.Attempted += rep.Attempted
		line.Failed += rep.Failed
		want := decl.EndToEnd
		have := rep.EndToEnd
		if traced {
			want, have = decl.PerLayer, rep.PerLayer
		}
		for _, d := range want {
			m, ok := find(have, d.Name)
			if !ok {
				return fmt.Errorf("%s: BENCHMARK.json declares %s but the run did not measure it", name, d.Name)
			}
			if m.Unit != d.Unit {
				return fmt.Errorf("%s: %s is in %s, BENCHMARK.json says %s", name, d.Name, m.Unit, d.Unit)
			}
			key := d.Name
			if len(names) > 1 {
				key = name + "/" + d.Name
			}
			line.Metrics[key] = metricValue{Value: m.Value, Unit: m.Unit}
		}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	if !line.Correct {
		os.Exit(1)
	}
	return nil
}

func runWorkload(ctx context.Context, name string, seed uint64, seconds float64, traced bool, root, daemonBin string, digests map[string]string) (*outcome, error) {
	b := &bench{root: root, daemonBin: daemonBin, seed: seed, seconds: seconds, conns: runtime.NumCPU()}
	b.work = filepath.Join(root, ".bench_build", "work", fmt.Sprintf("%s-%d", name, os.Getpid()))
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.work)
	if traced {
		b.tr = newTracer()
	}
	r := &outcome{Workload: name, out: os.Stdout}
	fmt.Fprintf(r.out, "== %s (seed %d, %g s, trace %t)\n", name, seed, seconds, traced)
	var err error
	switch name {
	case "cold-mix":
		err = b.coldMix(ctx, r)
	case "hot-zipf":
		err = b.hotZipf(ctx, r)
	case "batch-eval":
		err = b.batchEval(ctx, r)
	}
	if err != nil {
		return nil, err
	}
	if want, ok := digests[name]; ok && seed == 1 && want != r.Digest {
		r.problem("digest %s differs from the committed %s for seed 1", r.Digest, want)
	}
	if b.tr != nil {
		if err := b.layerMetrics(r); err != nil {
			return nil, err
		}
	}
	r.Env = stamp(b, r)
	printReport(r)
	return r, writeResult(b, r)
}

// layerMetrics turns the traced replay's spans into the per-layer
// metrics, prints the layer table and writes the Chrome trace.
func (b *bench) layerMetrics(r *outcome) error {
	aggs, rootTotal := aggregate(b.tr.spans)
	per := func(name string, scale float64) float64 {
		if a := aggs[name]; a != nil {
			return a.meanSeconds() * scale
		}
		return 0
	}
	size := func(name string) float64 {
		if a := aggs[name]; a != nil {
			return ratio(a.size, float64(a.calls))
		}
		return 0
	}
	r.layer("wire.decode.us", per("wire.decode", 1e6), "us")
	r.layer("wire.resolve.us", per("wire.resolve", 1e6), "us")
	r.layer("wire.key.us", per("wire.key", 1e6), "us")
	r.layer("wire.encode.us", per("wire.encode", 1e6), "us")
	r.layer("wire.encode.bytes", size("wire.encode"), "bytes")
	r.layer("wire.grid.ms", per("wire.grid", 1e3), "ms")
	r.layer("store.get.us", per("store.get", 1e6), "us")
	r.layer("store.put.ms", per("store.put", 1e3), "ms")
	r.layer("store.open.ms", per("store.open", 1e3), "ms")
	r.layer("montage.generate.ms", per("montage.generate", 1e3), "ms")
	r.layer("montage.tasks", size("montage.generate"), "count")
	r.layer("core.run.ms", per("core.run", 1e3), "ms")
	r.layer("core.tasks", size("core.run"), "count")
	coreUS := 0.0
	if a := aggs["core.run"]; a != nil {
		coreUS = ratio(a.total.Seconds()*1e6, a.work)
	}
	r.layer("core.us_per_task", coreUS, "us")
	for _, e := range experimentNames() {
		r.layer("experiments."+e+".ms", per("experiments.run/"+e, 1e3), "ms")
	}
	// Layers a workload never calls report zero.
	for _, m := range []metric{
		{Name: "sweep.points_per_s", Unit: "1/s"}, {Name: "sweep.first_row_ms", Unit: "ms"}, {Name: "sweep.busy_ratio", Unit: "ratio"},
		{Name: "gen.lag_p50_ms", Unit: "ms"}, {Name: "gen.lag_p99_ms", Unit: "ms"},
	} {
		if _, ok := find(r.PerLayer, m.Name); !ok {
			r.layer(m.Name, 0, m.Unit)
		}
	}
	// HTTP overhead on a hit: its round trip minus the traced decode,
	// resolve and key, the only in-process work a memory hit does.
	overhead := 0.0
	if hit, _ := find(r.PerLayer, "server.rtt.hit_us"); hit.Value > 0 {
		overhead = hit.Value - per("wire.decode", 1e6) - per("wire.resolve", 1e6) - per("wire.key", 1e6)
	}
	r.layer("server.http_overhead_us", overhead, "us")

	fmt.Fprintln(r.out, "-- traced replay, per span name (self time = duration minus child spans)")
	printLayerTable(r.out, aggs, rootTotal)
	path := filepath.Join(b.root, ".bench_build", "results", "trace-"+r.Workload+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(r.out, "trace: %d spans written to %s\n", len(b.tr.spans), path)
	return writeChromeTrace(path, b.tr.spans)
}

func printReport(r *outcome) {
	w := r.out
	fmt.Fprintf(w, "-- end-to-end (tracing off)\n%-16s %14s %-6s %8s  %s\n", "metric", "value", "unit", "samples", "what")
	for _, m := range r.EndToEnd {
		fmt.Fprintf(w, "%-16s %14.4f %-6s %8d  %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
	if len(r.PerLayer) > 0 {
		sorted := append([]metric(nil), r.PerLayer...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
		fmt.Fprintln(w, "-- per-layer")
		for _, m := range sorted {
			fmt.Fprintf(w, "%-36s %14.4f %s\n", m.Name, m.Value, m.Unit)
		}
	}
	e := r.Env
	fmt.Fprintf(w, "env: commit %s tree %s, %s, GOMAXPROCS bench %d daemon %d, nproc %d, kernel %s, store fs %s\n",
		e.Commit, e.Tree, e.GoVersion, e.BenchGOMAXPROCS, e.DaemonGOMAXPROCS, e.NProc, e.Kernel, e.StoreFS)
	verdict := "CORRECT"
	if !r.correct() {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(w, "verdict: %s: %d ops attempted, %d failed, %d samples, digest %s\n", verdict, r.Attempted, r.Failed, r.samples, r.Digest)
	for _, p := range r.Problems {
		fmt.Fprintf(w, "  problem: %s\n", p)
	}
}

// writeResult keeps the full report, environment stamp included.
func writeResult(b *bench, r *outcome) error {
	dir := filepath.Join(b.root, ".bench_build", "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, b.seed, btoi(b.tr != nil))), raw, 0o644)
}

func find(ms []metric, name string) (metric, bool) {
	for _, m := range ms {
		if m.Name == name {
			return m, true
		}
	}
	return metric{}, false
}
