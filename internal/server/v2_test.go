package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"repro/wire"
)

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func TestRunV2EchoesScenarioAndCaches(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"version": 2,
		"workflow": {"name": "1deg"},
		"fleet": {"processors": 16, "reliable": 4},
		"spot": {"rate_per_hour": 1.5, "seed": 7, "discount": 0.65},
		"recovery": {"checkpoint_seconds": 300, "checkpoint_overhead_seconds": 10, "checkpoint_bytes": 500000000}
	}`
	resp, cold := postJSON(t, ts.URL+"/v2/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	if resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("first request X-Cache = %q", resp.Header.Get("X-Cache"))
	}
	var doc wire.RunDocumentV2
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != 2 || doc.Workflow != "montage-1deg" {
		t.Errorf("document header: version %d workflow %q", doc.Version, doc.Workflow)
	}
	sc := doc.Scenario
	if sc.Spot == nil || sc.Spot.RatePerHour != 1.5 || sc.Spot.WarningSeconds != 120 {
		t.Errorf("scenario echo spot = %+v (defaults must be filled)", sc.Spot)
	}
	if sc.Fleet == nil || sc.Fleet.Reliable != 4 {
		t.Errorf("scenario echo fleet = %+v", sc.Fleet)
	}
	if sc.Recovery == nil || sc.Recovery.CheckpointBytes != 5e8 {
		t.Errorf("scenario echo recovery = %+v", sc.Recovery)
	}
	if doc.Metrics.CheckpointBytesWritten == 0 && doc.Metrics.Preempted > 0 && doc.Metrics.Checkpoints > 0 {
		t.Error("checkpoint bytes missing from metrics")
	}
	if doc.Utilization.Reliable <= 0 || doc.Utilization.Spot <= 0 {
		t.Errorf("per-sub-pool utilization = %+v", doc.Utilization)
	}
	if doc.Metrics.ReliableCapacityProcSeconds <= 0 ||
		doc.Metrics.SpotCapacityProcSeconds <= 0 {
		t.Errorf("capacity split = %v/%v", doc.Metrics.ReliableCapacityProcSeconds, doc.Metrics.SpotCapacityProcSeconds)
	}

	// The cached repeat must be byte-identical.
	resp2, warm := postJSON(t, ts.URL+"/v2/run", body)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Errorf("repeat X-Cache = %q", resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(cold, warm) {
		t.Error("cache hit differs from cold run")
	}

	// The echoed scenario is re-POSTable and resolves to the same run.
	echo, err := json.Marshal(doc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	resp3, reposted := postJSON(t, ts.URL+"/v2/run", string(echo))
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("echo re-POST status %d: %s", resp3.StatusCode, reposted)
	}
	if !bytes.Equal(cold, reposted) {
		t.Error("re-POSTed echo produced a different document")
	}
}

func TestSweepV2SpotAxis(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"scenario": {
			"version": 2,
			"workflow": {"name": "1deg"},
			"fleet": {"processors": 16, "reliable": 4},
			"spot": {"seed": 7, "discount": 0.65},
			"recovery": {"checkpoint_seconds": 300}
		},
		"axes": [{"axis": "spot.rate_per_hour", "values": [0, 1, 2]}]
	}`
	resp, raw := postJSON(t, ts.URL+"/v2/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var rows []wire.SweepRow
	done := false
	for sc.Scan() {
		var env wire.SweepEnvelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad envelope line: %v", err)
		}
		switch {
		case env.Row != nil:
			rows = append(rows, *env.Row)
		case env.Done != nil:
			done = true
			if env.Done.Rows != len(rows) {
				t.Errorf("done sentinel counts %d rows, saw %d", env.Done.Rows, len(rows))
			}
		case env.Error != "":
			t.Fatalf("sweep failed: %s", env.Error)
		}
	}
	if !done {
		t.Fatal("stream ended without a done sentinel")
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	rates := []float64{0, 1, 2}
	for i, row := range rows {
		if row.Index != i {
			t.Errorf("row %d has index %d", i, row.Index)
		}
		if row.Scenario.Spot == nil || row.Scenario.Spot.RatePerHour != rates[i] {
			t.Errorf("row %d scenario rate = %+v, want %g", i, row.Scenario.Spot, rates[i])
		}
	}
	// A hotter spot market can only preempt at least as much.
	if rows[0].Metrics.Preempted != 0 {
		t.Errorf("calm market preempted %d", rows[0].Metrics.Preempted)
	}
	if rows[2].Metrics.Preempted < rows[1].Metrics.Preempted {
		t.Errorf("preemptions not monotone: %d then %d", rows[1].Metrics.Preempted, rows[2].Metrics.Preempted)
	}
}

func TestSweepV2RejectsMalformedGrids(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	base := `"scenario": {"version": 2, "workflow": {"name": "1deg"}}`
	for name, body := range map[string]string{
		"no axes":       fmt.Sprintf(`{%s}`, base),
		"unknown axis":  fmt.Sprintf(`{%s, "axes": [{"axis": "spot.rate_per_hr", "values": [1]}]}`, base),
		"bad combo":     fmt.Sprintf(`{%s, "axes": [{"axis": "fleet.reliable", "values": [-3]}]}`, base),
		"unknown field": fmt.Sprintf(`{%s, "axis": []}`, base),
	} {
		resp, _ := postJSON(t, ts.URL+"/v2/sweep", body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestPostBodiesRejectUnknownFields is the table-driven strictness
// guard across every POST endpoint: a misspelled knob is a 400 naming
// the field, not a silently applied default.
func TestPostBodiesRejectUnknownFields(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct{ path, body string }{
		"v2 run top-level": {"/v2/run", `{"version":2,"workflow":{"name":"1deg"},"fleets":{}}`},
		"v2 run nested":    {"/v2/run", `{"version":2,"workflow":{"name":"1deg"},"spot":{"rate":1}}`},
		"v2 sweep":         {"/v2/sweep", `{"scenario":{"version":2,"workflow":{"name":"1deg"}},"grid":[]}`},
		"v2 experiment":    {"/v2/experiments/scenario-grid", `{"sedd":1}`},
		"v2 run trailing":  {"/v2/run", `{"version":2,"workflow":{"name":"1deg"}} garbage`},
	} {
		resp, body := postJSON(t, ts.URL+tc.path, tc.body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: no error document: %s", name, body)
		}
	}
}

func TestAdvisorV2ReturnsPostableScenarios(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v2/advisor?workflow=1deg&processors=4,8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var out struct {
		Recommended *struct {
			Processors int           `json:"processors"`
			Scenario   wire.Scenario `json:"scenario"`
		} `json:"recommended"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	if out.Recommended == nil {
		t.Fatal("no recommendation")
	}
	sc := out.Recommended.Scenario
	if sc.Version != 2 || sc.Fleet == nil || sc.Fleet.Processors != out.Recommended.Processors {
		t.Fatalf("recommended scenario is not self-consistent: %+v", sc)
	}
	if sc.Pricing == nil || sc.Pricing.Billing != "provisioned" {
		t.Errorf("recommended scenario billing = %+v, want provisioned", sc.Pricing)
	}
	// Ready to POST: the scenario must run as-is.
	enc, err := json.Marshal(sc)
	if err != nil {
		t.Fatal(err)
	}
	runResp, runBody := postJSON(t, ts.URL+"/v2/run", string(enc))
	if runResp.StatusCode != http.StatusOK {
		t.Fatalf("recommended scenario does not run: %d %s", runResp.StatusCode, runBody)
	}
}

func TestExperimentV2ParamsBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	body := `{
		"grid": {
			"scenario": {"version": 2, "workflow": {"name": "1deg"}, "pricing": {"billing": "provisioned"}},
			"axes": [{"axis": "fleet.processors", "values": [1, 2]}]
		}
	}`
	resp, raw := postJSON(t, ts.URL+"/v2/experiments/scenario-grid", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var out struct {
		Name   string `json:"name"`
		Tables []struct {
			Columns []string   `json:"columns"`
			Rows    [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != "scenario-grid" || len(out.Tables) != 1 {
		t.Fatalf("unexpected response: %s", raw)
	}
	if len(out.Tables[0].Rows) != 2 {
		t.Errorf("grid table has %d rows, want 2", len(out.Tables[0].Rows))
	}
	if out.Tables[0].Columns[0] != "fleet.processors" {
		t.Errorf("first column = %q", out.Tables[0].Columns[0])
	}
	// Unknown experiment still 404s on the POST route.
	if resp, _ := postJSON(t, ts.URL+"/v2/experiments/nope", `{}`); resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment: status %d, want 404", resp.StatusCode)
	}
	// An empty body runs the canned default grid.
	if resp, _ := postJSON(t, ts.URL+"/v2/experiments/scenario-grid", ""); resp.StatusCode != http.StatusOK {
		t.Errorf("empty params body: status %d, want 200", resp.StatusCode)
	}
}

// spotBlowup passes strict decode and Resolve, but its per-instance
// spot schedule could hold about 10^16 reclaims: sampling it used to
// panic in makeslice and kill the daemon.
const spotBlowup = `{"version":2,"workflow":{"name":"montage-1deg"},"fleet":{"processors":16},` +
	`"spot":{"rate_per_hour":1e12,"downtime_seconds":1e-9}}`

// TestSpotScheduleBoundIsBadRequest: a scenario whose spot schedule is
// past the sampler's bound is the client's error, from /v2/run and as a
// /v2/sweep axis value, and the daemon keeps serving.
func TestSpotScheduleBoundIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v2/run", spotBlowup)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "spot.downtime_seconds") {
		t.Errorf("/v2/run: status %d, body %s; want a 400 naming the knobs", resp.StatusCode, body)
	}
	sweep := `{"scenario":{"version":2,"workflow":{"name":"montage-1deg"},"fleet":{"processors":16},` +
		`"spot":{"rate_per_hour":1,"downtime_seconds":1e-9}},"axes":[{"axis":"spot.rate_per_hour","values":[1e12]}]}`
	resp, body = postJSON(t, ts.URL+"/v2/sweep", sweep)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("/v2/sweep: status %d, body %s; want 400", resp.StatusCode, body)
	}
	if resp, body := postJSON(t, ts.URL+"/v2/run", baseline); resp.StatusCode != http.StatusOK {
		t.Errorf("next run: status %d: %s", resp.StatusCode, body)
	}
}

// TestSubResolutionDowntimeIsBadRequest: a spot downtime below half the
// clock's spacing near the horizon would let a late reclaim restore at
// its own instant.  It is refused before the run as the client's error,
// from /v2/run and as a /v2/sweep point, whatever the draws, and the
// daemon keeps serving.
func TestSubResolutionDowntimeIsBadRequest(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const body = `{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":16},` +
		`"spot":{"rate_per_hour":1,"downtime_seconds":1e-12}}`
	resp, got := postJSON(t, ts.URL+"/v2/run", body)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(got), "spot.downtime_seconds") {
		t.Errorf("/v2/run: status %d, body %s; want a 400 naming spot.downtime_seconds", resp.StatusCode, got)
	}
	sweep := `{"scenario":` + body + `,"axes":[{"axis":"spot.downtime_seconds","values":[1e-11,1e-12]}]}`
	_, envs := readSweep(t, ts, sweep)
	if len(envs) != 2 || envs[0].Row == nil || !strings.Contains(envs[1].Error, "spot.downtime_seconds") {
		t.Errorf("/v2/sweep: got %+v; want the 1e-11 s row, then an error envelope naming spot.downtime_seconds", envs)
	}
	if resp, got := postJSON(t, ts.URL+"/v2/run", baseline); resp.StatusCode != http.StatusOK {
		t.Errorf("next run: status %d: %s", resp.StatusCode, got)
	}
}

// TestRunV2PanicIsServerError: a panic inside a simulation answers 500
// and is counted; nothing of it is cached, so the next request for the
// same key simulates again and succeeds.
func TestRunV2PanicIsServerError(t *testing.T) {
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	var fired atomic.Bool
	s.testHookPreSim = func() {
		if fired.CompareAndSwap(false, true) {
			panic("injected simulation panic")
		}
	}
	resp, body := postJSON(t, ts.URL+"/v2/run", baseline)
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(body), "injected simulation panic") {
		t.Errorf("panicking run: status %d, body %s; want 500", resp.StatusCode, body)
	}
	if got := s.metrics.panics.Load(); got != 1 {
		t.Errorf("reprosrv_panics_total = %d, want 1", got)
	}
	resp, body = postJSON(t, ts.URL+"/v2/run", baseline)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
		t.Errorf("next run: status %d, X-Cache %q: %s", resp.StatusCode, resp.Header.Get("X-Cache"), body)
	}
	s.Close()
	if st := s.store.Stats(); st.Writes != 1 {
		t.Errorf("store writes = %d; want only the good run stored", st.Writes)
	}
}
