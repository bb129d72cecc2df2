package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/wire"
)

// tracedScenarioDoc is scenarioDoc with the trace knob on: a seeded
// spot scenario that preempts, flight-recorded.
const tracedScenarioDoc = `{
	"version": 2,
	"workflow": {"name": "1deg"},
	"fleet": {"processors": 16, "reliable": 4},
	"spot": {"rate_per_hour": 1.5, "seed": 7, "discount": 0.65},
	"recovery": {"checkpoint_seconds": 300, "checkpoint_overhead_seconds": 10},
	"trace": true
}`

// TestScenarioTraceJSON checks -scenario -json on a traced document:
// the result is the traced v2 run document, timeline included.
func TestScenarioTraceJSON(t *testing.T) {
	var out bytes.Buffer
	if err := runDocument(context.Background(), writeDoc(t, "traced.json", tracedScenarioDoc), "json", "", &out); err != nil {
		t.Fatal(err)
	}
	var doc wire.RunDocumentV2
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Scenario.Trace || len(doc.Timeline) == 0 || len(doc.CriticalPath) == 0 {
		t.Errorf("traced document trace/timeline/critical_path = %v/%d/%d",
			doc.Scenario.Trace, len(doc.Timeline), len(doc.CriticalPath))
	}
}

// TestTraceFlagWritesChromeTrace checks -run -trace out.json: the file
// is a Chrome trace-event document with a non-empty traceEvents array.
func TestTraceFlagWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	run := runArgs(t, "-run", "1deg", "-procs", "16", "-spot-rate", "1.5", "-spot-seed", "7",
		"-spot-discount", "0.65", "-spot-ondemand", "4")
	if err := runScenario(context.Background(), run, "json", path, io.Discard); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace file has no events")
	}
}

// TestTraceFlagRejectsGridUses pins the -trace guard rails: sweeps and
// experiments have no single timeline to write.
func TestTraceFlagRejectsGridUses(t *testing.T) {
	if err := realMain(context.Background(), "fig4", "text", "", wire.Scenario{}, "out.json"); err == nil {
		t.Error("-exp with -trace accepted")
	}
	if err := runDocument(context.Background(), writeDoc(t, "sweep.json", sweepDoc), "text", "out.json", io.Discard); err == nil {
		t.Error("sweep with -trace accepted")
	}
}
