// Command montagesim runs the paper-reproduction experiments and prints
// their tables.
//
// Usage:
//
//	montagesim -exp list
//	montagesim -exp fig4
//	montagesim -exp all
//	montagesim -exp fig7 -format csv
//	montagesim -run 2deg -mode cleanup -procs 16 -billing provisioned
//	montagesim -run 1deg -json
//	montagesim -run 1deg -procs 16 -spot-rate 1.5 -spot-discount 0.65 \
//	    -spot-ondemand 4 -spot-ckpt 300 -spot-ckpt-overhead 10 -json
//	montagesim -run 1deg -procs 16 -spot-rate 1 -spot-ondemand 4 \
//	    -spot-ckpt 300 -placement heft -victim cost-aware
//	montagesim -scenario scenario.json
//	montagesim -scenario scenario.json -csv
//	montagesim -scenario sweep.json        # {scenario, axes} document
//	montagesim -scenario - < scenario.json
//
// The -exp flag selects a canned experiment (one per paper table or
// figure) from the shared registry in internal/experiments -- the same
// list the reprosrv daemon serves under /v2/experiments, so the CLI and
// the API can never drift apart.
//
// The -scenario flag reads one declarative v2 ScenarioSpec document (the
// same JSON POST /v2/run accepts) and runs it; with -json it emits the
// exact result document the server returns.  If the document is a sweep
// request -- a {"scenario": ..., "axes": [{"axis": <any scenario path>,
// "values": [...]}]} pair -- the grid streams to stdout as NDJSON
// envelopes byte-identical to a POST /v2/sweep response.  With -csv the
// single run (or the whole sweep grid) renders as one CSV table instead.
//
// The -run flag is shorthand for a scenario document: the preset and
// every knob flag (-mode, -procs, -billing, the -spot-* market, fleet
// and checkpoint flags, and the -placement, -victim, -checkpoint-policy
// and -pool-sizing policy names) fill in the sections of one v2
// scenario, which then runs exactly as -scenario would run it.  With
// -json it emits the same document POST /v2/run returns, byte for byte.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"

	"repro"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/sweep"
	"repro/wire"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (see -exp list), or 'all'")
	format := flag.String("format", "text", "output format: text or csv")
	scenario := flag.String("scenario", "", "path to a v2 scenario JSON document, or a {scenario, axes} sweep document ('-' reads stdin)")
	run := runFlags(flag.CommandLine)
	jsonOut := flag.Bool("json", false, "single run: emit the machine-readable result document (same as the reprosrv API)")
	csvOut := flag.Bool("csv", false, "scenario run: emit the result table (or sweep grid table) as CSV")
	tracePath := flag.String("trace", "", "single run: write the flight-recorder timeline as a Chrome trace-event file (open in Perfetto)")
	flag.Parse()

	// Ctrl-C cancels the whole experiment grid cooperatively: in-flight
	// simulations notice within a few events and the sweep drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	fmtArg := *format
	if *jsonOut {
		if *exp != "" {
			fmt.Fprintln(os.Stderr, "montagesim: -json applies to -run and -scenario only (experiments take -format text|csv|markdown)")
			os.Exit(1)
		}
		fmtArg = "json"
	}
	if *csvOut {
		if *scenario == "" || *jsonOut {
			fmt.Fprintln(os.Stderr, "montagesim: -csv applies to -scenario (and excludes -json)")
			os.Exit(1)
		}
		fmtArg = "csv"
	}
	if *run.Policies != (wire.PoliciesSection{}) && run.Workflow.Name == "" {
		fmt.Fprintln(os.Stderr, "montagesim: policy flags apply to -run (scenario documents carry their own policies section)")
		os.Exit(1)
	}
	if err := realMain(ctx, *exp, fmtArg, *scenario, *run, *tracePath); err != nil {
		fmt.Fprintf(os.Stderr, "montagesim: %v\n", err)
		os.Exit(1)
	}
}

// runFlags registers the -run flag and its knob flags on fs, each one
// writing straight into a field of the returned scenario document.  A
// section whose flags all stay zero resolves exactly like an absent
// one, so the document carries every section.
func runFlags(fs *flag.FlagSet) *wire.Scenario {
	sc := &wire.Scenario{
		Version:  wire.Version,
		Fleet:    &wire.FleetSection{},
		Storage:  &wire.StorageSection{},
		Pricing:  &wire.PricingSection{},
		Spot:     &wire.SpotSection{},
		Recovery: &wire.RecoverySection{},
		Policies: &wire.PoliciesSection{},
	}
	fs.StringVar(&sc.Workflow.Name, "run", "", "custom run: workflow preset 1deg, 2deg or 4deg")
	fs.StringVar(&sc.Storage.Mode, "mode", "regular", "custom run: remote-io, regular or cleanup")
	fs.IntVar(&sc.Fleet.Processors, "procs", 0, "custom run: provisioned processors (0 = full parallelism)")
	fs.StringVar(&sc.Pricing.Billing, "billing", "on-demand", "custom run: provisioned or on-demand")
	fs.Float64Var(&sc.Spot.RatePerHour, "spot-rate", 0, "custom run: per-instance spot reclaims per hour (0 = reliable capacity)")
	fs.Float64Var(&sc.Spot.WarningSeconds, "spot-warning", 0, "custom run: spot reclaim warning seconds (0 = 120 when reclaims are on)")
	fs.Float64Var(&sc.Spot.DowntimeSeconds, "spot-down", 0, "custom run: spot downtime seconds (0 = 600 when reclaims are on)")
	fs.Int64Var(&sc.Spot.Seed, "spot-seed", 0, "custom run: revocation-schedule seed")
	fs.Float64Var(&sc.Spot.Discount, "spot-discount", 0, "custom run: spot CPU discount fraction in [0,1)")
	fs.IntVar(&sc.Fleet.Reliable, "spot-ondemand", 0, "custom run: reliable on-demand processors of a mixed fleet")
	fs.Float64Var(&sc.Recovery.CheckpointSeconds, "spot-ckpt", 0, "custom run: checkpoint interval seconds (0 = restart preempted tasks from scratch)")
	fs.Float64Var(&sc.Recovery.CheckpointOverheadSeconds, "spot-ckpt-overhead", 0, "custom run: wall-clock seconds per checkpoint write")
	fs.StringVar(&sc.Policies.Placement, "placement", "", "custom run: reliable-slot placement policy (rank, heft, fifo)")
	fs.StringVar(&sc.Policies.Victim, "victim", "", "custom run: spot reclaim victim policy (deterministic, cost-aware, least-progress)")
	fs.StringVar(&sc.Policies.Checkpoint, "checkpoint-policy", "", "custom run: checkpoint trigger policy (interval, adaptive, risk)")
	fs.StringVar(&sc.Policies.Sizing, "pool-sizing", "", "custom run: reliable/spot pool-sizing policy (static, quarter, half)")
	return sc
}

// realMain dispatches on the selected action: an experiment, the -run
// scenario (selected when it names a workflow) or a scenario file.
func realMain(ctx context.Context, exp, format, scenarioPath string, run wire.Scenario, tracePath string) error {
	selected := 0
	for _, set := range []bool{exp != "", run.Workflow.Name != "", scenarioPath != ""} {
		if set {
			selected++
		}
	}
	if tracePath != "" && (exp != "" || selected == 0) {
		return fmt.Errorf("-trace applies to single -run or -scenario runs")
	}
	switch {
	case selected > 1:
		return fmt.Errorf("use exactly one of -exp, -run or -scenario")
	case exp != "":
		return runExperiment(ctx, exp, format, os.Stdout)
	case run.Workflow.Name != "":
		return runScenario(ctx, run, format, tracePath, os.Stdout)
	case scenarioPath != "":
		return runDocument(ctx, scenarioPath, format, tracePath, os.Stdout)
	default:
		flag.Usage()
		return fmt.Errorf("nothing to do: pass -exp, -run or -scenario")
	}
}

func runExperiment(ctx context.Context, name, format string, w io.Writer) error {
	index := experiments.Registry()
	if name == "list" {
		tbl := report.New("Available experiments", "name", "description")
		for _, e := range index {
			tbl.MustAdd(e.Name, e.Description)
		}
		return tbl.WriteText(w)
	}
	var selected []experiments.Experiment
	if name == "all" {
		selected = index
	} else {
		e, ok := experiments.Lookup(name)
		if !ok {
			return fmt.Errorf("unknown experiment %q (try -exp list)", name)
		}
		selected = []experiments.Experiment{e}
	}
	switch format {
	case "text", "csv", "markdown", "md":
	default:
		return fmt.Errorf("unknown format %q (want text, csv or markdown)", format)
	}
	// Run the selected experiments through the sweep engine: every
	// figure computes concurrently, and each one's tables stream out in
	// index order as soon as all earlier experiments have printed.
	// Experiments nest their own grid pools inside this one; both levels
	// are small (<=20 experiments, <=9 points) and a shared token pool
	// across nested sweeps could deadlock, so each level is bounded by
	// GOMAXPROCS independently and the OS scheduler absorbs the
	// oversubscription.
	return experiments.Sweep[experiments.Experiment, []*report.Table]{
		Points: selected,
		Run: func(ctx context.Context, e experiments.Experiment) ([]*report.Table, error) {
			tables, err := e.Tables(ctx, experiments.Params{})
			if err != nil {
				return nil, fmt.Errorf("%s: %w", e.Name, err)
			}
			return tables, nil
		},
	}.DoEach(ctx, func(tables []*report.Table) error {
		for _, t := range tables {
			var werr error
			switch format {
			case "text":
				werr = t.WriteText(w)
				fmt.Fprintln(w)
			case "csv":
				werr = t.WriteCSV(w)
			case "markdown", "md":
				werr = t.WriteMarkdown(w)
				fmt.Fprintln(w)
			}
			if werr != nil {
				return werr
			}
		}
		return nil
	})
}

// runDocument runs one v2 document: a plain scenario (single run) or a
// {scenario, axes} sweep request (NDJSON grid stream, byte-identical to
// a POST /v2/sweep response).
func runDocument(ctx context.Context, path, format, tracePath string, w io.Writer) error {
	raw, err := readInput(path)
	if err != nil {
		return err
	}
	// Sniff the document kind before the strict decode: a sweep request
	// nests the scenario under "scenario" and adds "axes".
	var probe map[string]json.RawMessage
	if err := json.Unmarshal(raw, &probe); err != nil {
		return fmt.Errorf("scenario document: %w", err)
	}
	if _, ok := probe["axes"]; ok {
		if tracePath != "" {
			return fmt.Errorf("-trace applies to single runs, not sweeps")
		}
		var req wire.SweepRequest
		if err := wire.DecodeStrict(bytes.NewReader(raw), &req); err != nil {
			return err
		}
		if format == "csv" {
			return writeGridCSV(ctx, req, w)
		}
		return streamGrid(ctx, req, w)
	}
	var sc wire.Scenario
	if err := wire.DecodeStrict(bytes.NewReader(raw), &sc); err != nil {
		return err
	}
	return runScenario(ctx, sc, format, tracePath, w)
}

// runScenario resolves and runs one scenario, writing its result
// document (json), table row (csv) or text table.
func runScenario(ctx context.Context, sc wire.Scenario, format, tracePath string, w io.Writer) error {
	spec, plan, err := sc.Resolve()
	if err != nil {
		return err
	}
	// The scenario's trace knob and the -trace flag both arm the
	// recorder; the flag additionally picks the Chrome-trace output.
	if sc.Trace || tracePath != "" {
		plan.Recorder = obs.NewRecorder(0)
	}
	res, err := simulate(ctx, spec, plan)
	if err != nil {
		return err
	}
	if err := maybeWriteTrace(tracePath, plan.Recorder); err != nil {
		return err
	}
	if format == "json" {
		var body []byte
		if sc.Trace {
			body, err = wire.NewTracedRunDocumentV2(spec, res, plan.Recorder).Encode()
		} else {
			body, err = wire.NewRunDocumentV2(spec, res).Encode()
		}
		if err != nil {
			return err
		}
		_, err = w.Write(body)
		return err
	}
	if format == "csv" {
		return buildRunTable(spec, res).WriteCSV(w)
	}
	return writeRunTable(spec, res, w)
}

// writeGridCSV runs the whole sweep grid and renders it as one CSV
// table (one column per axis plus the headline outcomes), the batch
// counterpart of the NDJSON stream.
func writeGridCSV(ctx context.Context, req wire.SweepRequest, w io.Writer) error {
	rows, err := experiments.ScenarioGrid(ctx, req)
	if err != nil {
		return err
	}
	tbl, err := experiments.GridTable(req, rows)
	if err != nil {
		return err
	}
	return tbl.WriteCSV(w)
}

// streamGrid expands and runs a sweep request's grid on the concurrent
// sweep engine, emitting the same NDJSON envelope stream the server's
// /v2/sweep endpoint produces: rows in grid order, then a done (or
// error) sentinel.
func streamGrid(ctx context.Context, req wire.SweepRequest, w io.Writer) error {
	grid, err := req.ResolveGrid()
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	rows := 0
	err = sweep.Stream(ctx, 0, grid,
		func(ctx context.Context, i int, p wire.ResolvedPoint) (wire.RunDocumentV2, error) {
			res, err := simulate(ctx, p.Spec, p.Plan)
			if err != nil {
				return wire.RunDocumentV2{}, err
			}
			return wire.NewRunDocumentV2(p.Spec, res), nil
		},
		func(i int, doc wire.RunDocumentV2) error {
			row := wire.SweepRow{Index: i, RunDocumentV2: doc}
			rows++
			return enc.Encode(wire.SweepEnvelope{Row: &row})
		})
	if err != nil {
		if rows > 0 {
			enc.Encode(wire.SweepEnvelope{Error: err.Error()}) //nolint:errcheck
		}
		return err
	}
	return enc.Encode(wire.SweepEnvelope{Done: &wire.SweepDone{Rows: rows}})
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}

// maybeWriteTrace renders the recorder's timeline as a Chrome
// trace-event file (viewable in Perfetto or chrome://tracing).
func maybeWriteTrace(tracePath string, rec *obs.Recorder) error {
	if tracePath == "" || rec == nil {
		return nil
	}
	body, err := obs.ChromeTrace(rec.Events())
	if err != nil {
		return err
	}
	if err := os.WriteFile(tracePath, body, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "montagesim: wrote %d trace events to %s\n", rec.Len(), tracePath)
	return nil
}

// simulate generates (through the process-wide workflow cache) and runs
// one resolved scenario.
func simulate(ctx context.Context, spec repro.Spec, plan repro.Plan) (repro.Result, error) {
	wf, err := repro.GenerateCached(spec)
	if err != nil {
		return repro.Result{}, err
	}
	return repro.RunContext(ctx, wf, plan)
}

func writeRunTable(spec repro.Spec, res repro.Result, w io.Writer) error {
	return buildRunTable(spec, res).WriteText(w)
}

func buildRunTable(spec repro.Spec, res repro.Result) *report.Table {
	plan := res.Plan
	tbl := report.New(fmt.Sprintf("%s, %s mode, %s billing", spec.Name, plan.Mode, plan.Billing),
		"quantity", "value")
	mtr := res.Metrics
	tbl.MustAdd("tasks", fmt.Sprint(mtr.TasksRun))
	tbl.MustAdd("processors", fmt.Sprint(mtr.Processors))
	tbl.MustAdd("execution time", mtr.ExecTime.String())
	tbl.MustAdd("makespan", mtr.Makespan.String())
	tbl.MustAdd("data in", mtr.BytesIn.String())
	tbl.MustAdd("data out", mtr.BytesOut.String())
	tbl.MustAdd("storage GB-hours", report.F(mtr.GBHoursStorage(), 4))
	tbl.MustAdd("peak storage", mtr.PeakStorage.String())
	tbl.MustAdd("utilization", report.F(mtr.Utilization, 3))
	if plan.Spot.Enabled() {
		tbl.MustAdd("on-demand procs", fmt.Sprint(mtr.OnDemandProcessors))
		tbl.MustAdd("spot procs", fmt.Sprint(mtr.Processors-mtr.OnDemandProcessors))
		tbl.MustAdd("preempted", fmt.Sprint(mtr.Preempted))
		tbl.MustAdd("wasted CPU s", report.F(mtr.WastedCPUSeconds, 0))
		tbl.MustAdd("checkpoints", fmt.Sprint(mtr.Checkpoints))
	}
	tbl.MustAdd("CPU cost", res.Cost.CPU.String())
	tbl.MustAdd("storage cost", res.Cost.Storage.String())
	tbl.MustAdd("transfer cost", res.Cost.Transfer().String())
	tbl.MustAdd("total cost", res.Cost.Total().String())
	return tbl
}
