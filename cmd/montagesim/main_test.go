package main

import (
	"bytes"
	"context"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/wire"
)

func TestRunExperimentList(t *testing.T) {
	var b strings.Builder
	if err := runExperiment(context.Background(), "list", "text", &b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fig4", "fig10", "q2b", "ablation-outage", "spot-frontier"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("list missing %q", want)
		}
	}
}

func TestRunExperimentText(t *testing.T) {
	var b strings.Builder
	if err := runExperiment(context.Background(), "ccr-table", "text", &b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "montage-4deg") {
		t.Errorf("missing workflow row:\n%s", b.String())
	}
}

func TestRunExperimentCSV(t *testing.T) {
	var b strings.Builder
	if err := runExperiment(context.Background(), "ccr-table", "csv", &b); err != nil {
		t.Fatal(err)
	}
	first := strings.SplitN(b.String(), "\n", 2)[0]
	if first != "workflow,tasks,ccr,paper" {
		t.Errorf("CSV header = %q", first)
	}
}

func TestRunExperimentErrors(t *testing.T) {
	var b strings.Builder
	if err := runExperiment(context.Background(), "no-such-figure", "text", &b); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := runExperiment(context.Background(), "ccr-table", "yaml", &b); err == nil {
		t.Error("unknown format accepted")
	}
}

// runArgs parses -run command-line flags the way main does and returns
// the scenario they describe.
func runArgs(t *testing.T, args ...string) wire.Scenario {
	t.Helper()
	fs := flag.NewFlagSet("montagesim", flag.ContinueOnError)
	sc := runFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return *sc
}

func TestRunCustom(t *testing.T) {
	var b strings.Builder
	run := runArgs(t, "-run", "1deg", "-mode", "cleanup", "-procs", "8", "-billing", "provisioned")
	if err := runScenario(context.Background(), run, "text", "", &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{"montage-1deg", "cleanup", "provisioned", "total cost"} {
		if !strings.Contains(out, want) {
			t.Errorf("custom run output missing %q:\n%s", want, out)
		}
	}
}

func TestRunCustomJSON(t *testing.T) {
	var b strings.Builder
	if err := runScenario(context.Background(), runArgs(t, "-run", "1deg", "-procs", "4"), "json", "", &b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{`"version": 2`, `"total"`, `"CPUSeconds"`, `"workflow": "montage-1deg"`, `"billing": "on-demand"`, `"processors": 4`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %q:\n%s", want, out)
		}
	}
}

// TestRunCustomJSONMatchesWireDocument: -run is shorthand for a scenario
// document, so its -json output must be byte-identical to -scenario of
// the equivalent document.
func TestRunCustomJSONMatchesWireDocument(t *testing.T) {
	var cli, doc bytes.Buffer
	run := runArgs(t, "-run", "1deg", "-mode", "regular", "-procs", "4", "-billing", "on-demand")
	if err := runScenario(context.Background(), run, "json", "", &cli); err != nil {
		t.Fatal(err)
	}
	path := writeDoc(t, "s.json", `{"version": 2, "workflow": {"name": "1deg"}, "fleet": {"processors": 4}}`)
	if err := runDocument(context.Background(), path, "json", "", &doc); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), doc.Bytes()) {
		t.Errorf("-run JSON diverges from -scenario:\n-run:\n%s\n-scenario:\n%s", cli.Bytes(), doc.Bytes())
	}
}

// TestRunCustomSpotJSONMatchesWireDocument pins the acceptance
// criterion end to end: a seeded mixed-fleet -run -json is
// byte-identical to what POST /v2/run returns for the same scenario.
func TestRunCustomSpotJSONMatchesWireDocument(t *testing.T) {
	var cli bytes.Buffer
	run := runArgs(t, "-run", "1deg", "-procs", "16", "-spot-rate", "1.5", "-spot-seed", "7", "-spot-discount", "0.65",
		"-spot-ondemand", "4", "-spot-ckpt", "300", "-spot-ckpt-overhead", "10")
	if err := runScenario(context.Background(), run, "json", "", &cli); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newTestHandler(t))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/run", "application/json", strings.NewReader(`{"version": 2,
		"workflow": {"name": "1deg"}, "fleet": {"processors": 16, "reliable": 4},
		"spot": {"rate_per_hour": 1.5, "seed": 7, "discount": 0.65},
		"recovery": {"checkpoint_seconds": 300, "checkpoint_overhead_seconds": 10}}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	srv, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), srv) {
		t.Errorf("CLI spot JSON diverges from POST /v2/run:\nCLI:\n%s\nserver:\n%s", cli.Bytes(), srv)
	}
	if !strings.Contains(cli.String(), `"reliable": 4`) {
		t.Errorf("fleet split missing from the document:\n%s", cli.String())
	}
}

func TestRunCustomErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"unknown preset":  {"-run", "9deg"},
		"unknown mode":    {"-run", "1deg", "-mode", "sideways"},
		"unknown billing": {"-run", "1deg", "-billing", "prepaid"},
		"unknown policy":  {"-run", "1deg", "-placement", "coin-flip"},
	} {
		if err := runScenario(context.Background(), runArgs(t, args...), "text", "", io.Discard); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestRunCustomRejectsNonFinite pins that a flag value JSON cannot
// carry fails before anything runs, in every output format, with an
// error naming the scenario knob: -spot-rate Inf used to run and then
// fail to encode its -json document.
func TestRunCustomRejectsNonFinite(t *testing.T) {
	for _, args := range [][]string{
		{"-spot-rate", "Inf", "spot.rate_per_hour"},
		{"-spot-rate", "1", "-spot-down", "NaN", "spot.downtime_seconds"},
		{"-spot-rate", "1", "-spot-ckpt", "300", "-spot-ckpt-overhead", "-Inf", "recovery.checkpoint_overhead_seconds"},
	} {
		flags, path := args[:len(args)-1], args[len(args)-1]
		run := runArgs(t, append([]string{"-run", "1deg", "-procs", "16"}, flags...)...)
		for _, format := range []string{"json", "csv", "text"} {
			var b strings.Builder
			err := runScenario(context.Background(), run, format, "", &b)
			if err == nil || !strings.Contains(err.Error(), path) {
				t.Errorf("%v -%s: err = %v, want an error naming %s", flags, format, err, path)
			}
			if b.Len() != 0 {
				t.Errorf("%v -%s: wrote %q before failing", flags, format, b.String())
			}
		}
	}
}

func TestRealMainArgs(t *testing.T) {
	run := wire.Scenario{Version: wire.Version, Workflow: wire.WorkflowSection{Name: "1deg"}}
	if err := realMain(context.Background(), "fig4", "text", "", run, ""); err == nil {
		t.Error("-exp together with -run accepted")
	}
	if err := realMain(context.Background(), "fig4", "text", "file.json", wire.Scenario{}, ""); err == nil {
		t.Error("-exp together with -scenario accepted")
	}
	if err := realMain(context.Background(), "", "text", "", wire.Scenario{}, ""); err == nil {
		t.Error("no action accepted")
	}
}
