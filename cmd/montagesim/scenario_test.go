package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/wire"
)

func newTestHandler(t *testing.T) http.Handler {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return s.Handler()
}

func writeDoc(t *testing.T, name, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const scenarioDoc = `{
  "version": 2,
  "workflow": {"name": "1deg"},
  "fleet": {"processors": 16, "reliable": 4},
  "spot": {"rate_per_hour": 1.5, "seed": 7, "discount": 0.65},
  "recovery": {"checkpoint_seconds": 300, "checkpoint_overhead_seconds": 10, "checkpoint_bytes": 500000000}
}`

const sweepDoc = `{
  "scenario": {
    "version": 2,
    "workflow": {"name": "1deg"},
    "fleet": {"processors": 16, "reliable": 4},
    "spot": {"seed": 7, "discount": 0.65}
  },
  "axes": [{"axis": "spot.rate_per_hour", "values": [0, 1.5]}]
}`

// TestScenarioRunMatchesServer: montagesim -scenario -json must emit
// the exact bytes POST /v2/run returns for the same document.
func TestScenarioRunMatchesServer(t *testing.T) {
	var cli bytes.Buffer
	if err := runDocument(context.Background(), writeDoc(t, "s.json", scenarioDoc), "json", "", &cli); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newTestHandler(t))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/run", "application/json", strings.NewReader(scenarioDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	srv, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("server status %d: %s", resp.StatusCode, srv)
	}
	if !bytes.Equal(cli.Bytes(), srv) {
		t.Errorf("CLI and server v2 documents differ:\ncli: %s\nsrv: %s", cli.Bytes(), srv)
	}
}

// TestScenarioSweepMatchesServer: the CLI's sweep stream must be
// byte-identical to a POST /v2/sweep response for the same document.
func TestScenarioSweepMatchesServer(t *testing.T) {
	var cli bytes.Buffer
	if err := runDocument(context.Background(), writeDoc(t, "sweep.json", sweepDoc), "text", "", &cli); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(newTestHandler(t))
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v2/sweep", "application/json", strings.NewReader(sweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	srv, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(cli.Bytes(), srv) {
		t.Errorf("CLI and server sweep streams differ:\ncli: %s\nsrv: %s", cli.Bytes(), srv)
	}
	// Sanity: the shared stream is a well-formed envelope sequence.
	sc := bufio.NewScanner(bytes.NewReader(cli.Bytes()))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	rows, done := 0, false
	for sc.Scan() {
		var env wire.SweepEnvelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatal(err)
		}
		if env.Row != nil {
			rows++
		}
		if env.Done != nil {
			done = true
		}
	}
	if rows != 2 || !done {
		t.Errorf("stream had %d rows, done=%t; want 2, true", rows, done)
	}
}

func TestScenarioTextTable(t *testing.T) {
	var out bytes.Buffer
	if err := runDocument(context.Background(), writeDoc(t, "s.json", scenarioDoc), "text", "", &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"montage-1deg", "preempted", "total cost"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("table output missing %q:\n%s", want, out.String())
		}
	}
}

func TestScenarioRejectsMalformedDocuments(t *testing.T) {
	for name, body := range map[string]string{
		"unknown field": `{"version": 2, "workflow": {"name": "1deg"}, "wokflow": 1}`,
		"bad version":   `{"version": 3, "workflow": {"name": "1deg"}}`,
		"not json":      `not json`,
		"bad axis":      `{"scenario": {"version": 2, "workflow": {"name": "1deg"}}, "axes": [{"axis": "zap", "values": [1]}]}`,
	} {
		var out bytes.Buffer
		if err := runDocument(context.Background(), writeDoc(t, "bad.json", body), "text", "", &out); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if err := runDocument(context.Background(), filepath.Join(t.TempDir(), "absent.json"), "text", "", io.Discard); err == nil {
		t.Error("absent file accepted")
	}
}
