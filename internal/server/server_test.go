package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro"
	"repro/wire"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	// Close after the HTTP server: no handler queues a store write any
	// more, and the queued ones land before t.TempDir is removed.
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// postRun POSTs one scenario document to /v2/run.
func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	return postJSON(t, ts.URL+"/v2/run", body)
}

// baseline is the paper's 1-degree baseline scenario.
const baseline = `{"version":2,"workflow":{"name":"1deg"}}`

func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func TestRunEndpointCachesRepeats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":4},"pricing":{"billing":"provisioned"}}`

	cold, coldBody := postRun(t, ts, req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldBody)
	}
	if got := cold.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("cold X-Cache = %q, want miss", got)
	}
	warm, warmBody := postRun(t, ts, req)
	if warm.StatusCode != http.StatusOK {
		t.Fatalf("warm status %d", warm.StatusCode)
	}
	if got := warm.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("warm X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("cached response differs from cold:\ncold: %s\nwarm: %s", coldBody, warmBody)
	}

	var doc wire.RunDocumentV2
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workflow != "montage-1deg" || doc.Tasks != 203 || doc.Scenario.Fleet == nil || doc.Scenario.Fleet.Processors != 4 {
		t.Errorf("document = %+v", doc)
	}

	// The hit must be visible in /metrics, per the acceptance criteria.
	_, metricsBody := getBody(t, ts.URL+"/metrics")
	if !strings.Contains(string(metricsBody), "reprosrv_result_cache_hits_total 1") {
		t.Errorf("metrics missing the cache hit:\n%s", metricsBody)
	}
}

// TestRunCacheByteIdenticalAcrossGrid is the cache-correctness property
// test: over a grid of specs and plans, the cached response must be
// byte-identical to the cold one.
func TestRunCacheByteIdenticalAcrossGrid(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, workflow := range []string{"1deg", "2deg"} {
		for _, mode := range []string{"remote-io", "regular", "cleanup"} {
			for _, procs := range []int{0, 8} {
				req := fmt.Sprintf(`{"version":2,"workflow":{"name":%q},"storage":{"mode":%q},"fleet":{"processors":%d}}`, workflow, mode, procs)
				cold, coldBody := postRun(t, ts, req)
				warm, warmBody := postRun(t, ts, req)
				if cold.StatusCode != http.StatusOK || warm.StatusCode != http.StatusOK {
					t.Fatalf("%s: statuses %d/%d", req, cold.StatusCode, warm.StatusCode)
				}
				if warm.Header.Get("X-Cache") != "hit" {
					t.Errorf("%s: repeat was not a cache hit", req)
				}
				if !bytes.Equal(coldBody, warmBody) {
					t.Errorf("%s: cached body differs from cold", req)
				}
			}
		}
	}
}

// TestRunSpotMixedFleet is the spot wire acceptance test: a seeded
// mixed-fleet scenario is served byte-identical to the library's own
// document (the same document montagesim -json prints), is cached under
// a key distinct from its on-demand twin, and reports utilization
// against integrated available capacity rather than the static pool.
func TestRunSpotMixedFleet(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":16,"reliable":4},"spot":{"rate_per_hour":1.5,"seed":7,"discount":0.65},"recovery":{"checkpoint_seconds":300,"checkpoint_overhead_seconds":10}}`

	cold, coldBody := postRun(t, ts, req)
	if cold.StatusCode != http.StatusOK {
		t.Fatalf("cold status %d: %s", cold.StatusCode, coldBody)
	}
	// Byte identity with the offline path: resolve, run, encode exactly
	// as montagesim -json does.
	var sc wire.Scenario
	if err := wire.DecodeStrict(strings.NewReader(req), &sc); err != nil {
		t.Fatal(err)
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		t.Fatal(err)
	}
	wf, err := repro.GenerateCached(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := repro.Run(wf, plan)
	if err != nil {
		t.Fatal(err)
	}
	want, err := wire.NewRunDocumentV2(spec, res).Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(coldBody, want) {
		t.Errorf("server document differs from the offline encoding:\nserver: %s\nlocal:  %s", coldBody, want)
	}

	// The on-demand twin (same workflow, same pool, no spot knobs) must
	// miss the cache: distinct plans, distinct keys.
	twin, twinBody := postRun(t, ts, `{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":16}}`)
	if twin.StatusCode != http.StatusOK {
		t.Fatalf("twin status %d", twin.StatusCode)
	}
	if got := twin.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("on-demand twin X-Cache = %q, want miss (cache collision with the spot plan)", got)
	}
	if bytes.Equal(coldBody, twinBody) {
		t.Error("spot and on-demand documents identical; the knobs did nothing")
	}
	// The spot repeat hits its own entry, byte-identically.
	warm, warmBody := postRun(t, ts, req)
	if got := warm.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("spot repeat X-Cache = %q, want hit", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Error("cached spot body differs from cold")
	}

	var doc wire.RunDocumentV2
	if err := json.Unmarshal(coldBody, &doc); err != nil {
		t.Fatal(err)
	}
	echo := doc.Scenario
	if echo.Spot == nil || echo.Spot.RatePerHour != 1.5 || echo.Spot.WarningSeconds != 120 ||
		echo.Fleet == nil || echo.Fleet.Reliable != 4 ||
		echo.Recovery == nil || echo.Recovery.CheckpointSeconds != 300 {
		t.Errorf("spot scenario did not round-trip: %+v / %+v / %+v", echo.Spot, echo.Fleet, echo.Recovery)
	}
	m := doc.Metrics
	if m.Preempted == 0 {
		t.Error("seeded spot scenario preempted nothing; the test is vacuous")
	}
	// The reclaims provably changed the utilization denominator: the
	// capacity integral sits below the static pool, and the reported
	// utilization is CPU over that integral.
	staticCap := float64(m.Processors) * m.ExecTime.Seconds()
	if m.CapacityProcSeconds <= 0 || m.CapacityProcSeconds >= staticCap {
		t.Errorf("CapacityProcSeconds = %v, want in (0, %v)", m.CapacityProcSeconds, staticCap)
	}
	if got, want := m.Utilization, m.CPUSeconds/m.CapacityProcSeconds; got != want {
		t.Errorf("Utilization = %v, want CPU/capacity = %v", got, want)
	}
}

func TestRunCoalescesConcurrentIdenticalRequests(t *testing.T) {
	const herd = 8
	s, ts := newTestServer(t, Config{MaxConcurrent: 2})
	release := make(chan struct{})
	s.testHookPreSim = func() { <-release }

	bodies := make([][]byte, herd)
	statuses := make([]int, herd)
	var wg sync.WaitGroup
	wg.Add(herd)
	for i := 0; i < herd; i++ {
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/run", "application/json",
				strings.NewReader(`{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":2}}`))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	// Wait until the whole herd is parked on one flight, then let the
	// single simulation proceed.
	for deadline := time.Now().Add(10 * time.Second); ; {
		s.flights.mu.Lock()
		n := 0
		for _, f := range s.flights.flights {
			n += f.waiters
		}
		s.flights.mu.Unlock()
		if n == herd {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d requests joined the flight", n, herd)
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()

	for i := 0; i < herd; i++ {
		if statuses[i] != http.StatusOK {
			t.Errorf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("request %d got a different body", i)
		}
	}
	if got := s.metrics.simulations.Load(); got != 1 {
		t.Errorf("herd of %d ran %d simulations, want exactly 1", herd, got)
	}
	if got := s.metrics.coalesced.Load(); got != herd-1 {
		t.Errorf("coalesced = %d, want %d", got, herd-1)
	}
}

func TestAdmissionQueueRejectsOverflow(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxConcurrent: 1, QueueDepth: 1})
	release := make(chan struct{})
	s.testHookPreSim = func() { <-release }

	var wg sync.WaitGroup
	wg.Add(2)
	errs := make([]error, 2)
	// A holds the only worker slot; B waits in the queue.
	for i, body := range []string{
		`{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":1}}`,
		`{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":2}}`,
	} {
		go func(i int, body string) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v2/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("status %d", resp.StatusCode)
			}
		}(i, body)
		// A must be in flight before B queues, and B queued before C.
		for deadline := time.Now().Add(10 * time.Second); ; {
			if s.metrics.inflight.Load() == 1 && s.waiting.Load() == int64(i) {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("request %d never reached its slot", i)
			}
			time.Sleep(time.Millisecond)
		}
	}
	// C overflows the queue and must be refused immediately.
	resp, body := postRun(t, ts, `{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":3}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("overflow status = %d, want 503 (%s)", resp.StatusCode, body)
	}
	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("request %d: %v", i, err)
		}
	}
	if got := s.metrics.rejected.Load(); got != 1 {
		t.Errorf("rejected = %d, want 1", got)
	}
}

// processorSweep is a /v2/sweep body whose grid is three provisioned
// 1-degree runs on 1, 2 and 4 processors.
const processorSweep = `{"scenario":{"version":2,"workflow":{"name":"1deg"},"pricing":{"billing":"provisioned"}},` +
	`"axes":[{"axis":"fleet.processors","values":[1,2,4]}]}`

// readSweep POSTs a sweep and decodes its NDJSON envelopes, failing on
// any line that is not one.
func readSweep(t *testing.T, ts *httptest.Server, body string) (*http.Response, []wire.SweepEnvelope) {
	t.Helper()
	resp, raw := postJSON(t, ts.URL+"/v2/sweep", body)
	var envs []wire.SweepEnvelope
	sc := bufio.NewScanner(bytes.NewReader(raw))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var e wire.SweepEnvelope
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %d: %v: %s", len(envs), err, sc.Text())
		}
		envs = append(envs, e)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, envs
}

func TestSweepStreamsNDJSONInGridOrder(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, envs := readSweep(t, ts, processorSweep)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	wantProcs := []int{1, 2, 4}
	var rows int
	var done bool
	for _, e := range envs {
		switch {
		case e.Row != nil:
			if done {
				t.Error("row after the done sentinel")
			}
			if e.Row.Index != rows {
				t.Errorf("row %d has index %d: rows out of grid order", rows, e.Row.Index)
			}
			if f := e.Row.Scenario.Fleet; f == nil || f.Processors != wantProcs[rows] {
				t.Errorf("row %d ran fleet %+v, want %d processors", rows, f, wantProcs[rows])
			}
			rows++
		case e.Done != nil:
			done = true
			if e.Done.Rows != len(wantProcs) {
				t.Errorf("done sentinel counts %d rows, want %d", e.Done.Rows, len(wantProcs))
			}
		default:
			t.Errorf("line is neither row nor done: %+v", e)
		}
	}
	if rows != len(wantProcs) {
		t.Errorf("got %d rows, want %d", rows, len(wantProcs))
	}
	if !done {
		t.Error("stream ended without the done sentinel")
	}
}

// TestSweepMidStreamFailureEmitsErrorEnvelope pins the wire contract
// for a grid that fails after rows have streamed: the 200 status line
// is long gone, so the stream must end with an unambiguous {"error"}
// envelope -- never a bare data row, and no done sentinel.  A point
// that panics fails the same way, and the panic is counted.
func TestSweepMidStreamFailureEmitsErrorEnvelope(t *testing.T) {
	for _, panics := range []bool{false, true} {
		s, ts := newTestServer(t, Config{})
		s.testHookSweepPoint = func(index int) error {
			if index != 2 {
				return nil
			}
			if panics {
				panic(fmt.Sprintf("injected failure at point %d", index))
			}
			return fmt.Errorf("injected failure at point %d", index)
		}
		resp, envs := readSweep(t, ts, processorSweep)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("panics=%v: status %d; the failure was supposed to hit mid-stream", panics, resp.StatusCode)
		}
		var rows int
		var sawError bool
		for _, e := range envs {
			switch {
			case sawError:
				t.Errorf("panics=%v: line after the terminal error envelope: %+v", panics, e)
			case e.Row != nil:
				rows++
			case e.Error != "":
				sawError = true
				if !strings.Contains(e.Error, "injected failure") {
					t.Errorf("panics=%v: error envelope says %q", panics, e.Error)
				}
			case e.Done != nil:
				t.Errorf("panics=%v: done sentinel on a failed sweep", panics)
			}
		}
		if rows != 2 {
			t.Errorf("panics=%v: streamed %d rows before the failure, want 2", panics, rows)
		}
		if !sawError {
			t.Errorf("panics=%v: stream ended without the error envelope", panics)
		}
		if got, want := s.metrics.panics.Load(), map[bool]uint64{false: 0, true: 1}[panics]; got != want {
			t.Errorf("panics=%v: reprosrv_panics_total = %d, want %d", panics, got, want)
		}
	}
}

func TestSweepModeAndCCRAxes(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, envs := readSweep(t, ts, `{"scenario":{"version":2,"workflow":{"name":"1deg"}},`+
		`"axes":[{"axis":"storage.mode","values":["regular","cleanup"]},{"axis":"workflow.ccr","values":[0.1]}]}`)
	wantModes := []string{"regular", "cleanup"}
	var rows int
	for _, e := range envs {
		if e.Row == nil {
			continue // terminal sentinel
		}
		if ccr := e.Row.Scenario.Workflow.CCR; ccr != 0.1 {
			t.Errorf("row %d ccr = %v", rows, ccr)
		}
		if st := e.Row.Scenario.Storage; st == nil || st.Mode != wantModes[rows] {
			t.Errorf("row %d storage = %+v, want mode %q", rows, st, wantModes[rows])
		}
		rows++
	}
	if rows != 2 {
		t.Errorf("got %d rows, want 2", rows)
	}
}

func TestExperimentsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v2/experiments")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list status %d", resp.StatusCode)
	}
	var list []struct {
		Name        string `json:"name"`
		Description string `json:"description"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool, len(list))
	for _, e := range list {
		names[e.Name] = true
	}
	for _, want := range []string{"ccr-table", "fig4", "overload"} {
		if !names[want] {
			t.Errorf("experiment list missing %q", want)
		}
	}

	resp, body = getBody(t, ts.URL+"/v2/experiments/ccr-table")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ccr-table status %d: %s", resp.StatusCode, body)
	}
	var run struct {
		Name   string `json:"name"`
		Tables []struct {
			Title string     `json:"title"`
			Rows  [][]string `json:"rows"`
		} `json:"tables"`
	}
	if err := json.Unmarshal(body, &run); err != nil {
		t.Fatal(err)
	}
	if run.Name != "ccr-table" || len(run.Tables) != 1 || len(run.Tables[0].Rows) != 3 {
		t.Errorf("ccr-table response = %+v", run)
	}

	resp, _ = getBody(t, ts.URL+"/v2/experiments/no-such-figure")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown experiment status = %d, want 404", resp.StatusCode)
	}

	resp, _ = getBody(t, ts.URL+"/v2/experiments/ccr-table?seed=nope")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad seed status = %d, want 400", resp.StatusCode)
	}
}

func TestAdvisorEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/v2/advisor?workflow=1deg&processors=1,2,4&slack=0.5")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var doc struct {
		Workflow string `json:"workflow"`
		Options  []struct {
			Processors int `json:"processors"`
		} `json:"options"`
		Pareto      []json.RawMessage `json:"pareto"`
		Recommended *json.RawMessage  `json:"recommended"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Workflow != "montage-1deg" || len(doc.Options) != 3 {
		t.Errorf("advisor doc = %s", body)
	}
	if len(doc.Pareto) == 0 || doc.Recommended == nil {
		t.Errorf("advisor gave no recommendation: %s", body)
	}

	// Every malformed parameter is a 400 before any sweep runs.  NaN and
	// Inf parse as floats, and NaN passes every ordering guard, so
	// without an explicit finiteness check they would silently drop the
	// answer the caller asked for.
	for name, query := range map[string]string{
		"missing workflow":     "",
		"unknown workflow":     "?workflow=9deg",
		"bad mode":             "?workflow=1deg&mode=sideways",
		"bad processors":       "?workflow=1deg&processors=0,2",
		"negative slack":       "?workflow=1deg&slack=-1",
		"NaN slack":            "?workflow=1deg&slack=NaN",
		"Inf slack":            "?workflow=1deg&slack=Inf",
		"zero deadline":        "?workflow=1deg&deadline_hours=0",
		"NaN deadline":         "?workflow=1deg&deadline_hours=NaN",
		"Inf deadline":         "?workflow=1deg&deadline_hours=Inf",
		"negative budget":      "?workflow=1deg&budget=-1",
		"NaN budget":           "?workflow=1deg&budget=NaN",
		"negative Inf budget":  "?workflow=1deg&budget=-Inf",
		"Inf budget":           "?workflow=1deg&budget=Inf",
		"unparseable deadline": "?workflow=1deg&deadline_hours=soon",
	} {
		resp, body := getBody(t, ts.URL+"/v2/advisor"+query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (%s)", name, resp.StatusCode, body)
		}
	}
}

func TestRunRejectsBadBodies(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, body := range map[string]string{
		"garbage":          `{not json`,
		"unknown workflow": `{"version":2,"workflow":{"name":"9deg"}}`,
		"no selector":      `{"version":2,"workflow":{}}`,
		"bad mode":         `{"version":2,"workflow":{"name":"1deg"},"storage":{"mode":"sideways"}}`,
		"no version":       `{"workflow":{"name":"1deg"}}`,
		"flat request":     `{"workflow":"1deg","processors":4}`,
	} {
		resp, _ := postRun(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := getBody(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Errorf("healthz = %d %s", resp.StatusCode, body)
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts, baseline)
	postRun(t, ts, baseline)
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`reprosrv_requests_total{endpoint="run_v2"} 2`,
		"reprosrv_simulations_total 1",
		"reprosrv_result_cache_hits_total 1",
		"reprosrv_result_cache_misses_total 1",
		"reprosrv_in_flight 0",
		"reprosrv_queue_depth 0",
		"reprosrv_workflow_cache_entries",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestMetricsPrometheusConformance checks the exposition format: every
// sample family carries # HELP and # TYPE lines before its first
// sample, cumulative *_total families are counters, and point-in-time
// families are gauges -- so a real Prometheus scrape ingests them with
// the right semantics.
func TestMetricsPrometheusConformance(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts, baseline)
	_, body := getBody(t, ts.URL+"/metrics")

	helps := map[string]bool{}
	types := map[string]string{}
	samples := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			fields := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			if len(fields) != 2 || fields[1] == "" {
				t.Errorf("HELP line without text: %q", line)
			}
			helps[fields[0]] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			if samples[fields[0]] {
				t.Errorf("TYPE for %s after its samples", fields[0])
			}
			if _, dup := types[fields[0]]; dup {
				t.Errorf("duplicate TYPE for %s", fields[0])
			}
			types[fields[0]] = fields[1]
		case strings.HasPrefix(line, "#"):
			t.Errorf("unexpected comment line: %q", line)
		default:
			name := line
			if i := strings.IndexAny(line, "{ "); i >= 0 {
				name = line[:i]
			}
			// Histogram families expose _bucket/_sum/_count sample
			// names under the base family's HELP/TYPE.
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				base := strings.TrimSuffix(name, suffix)
				if base != name && types[base] == "histogram" {
					name = base
					break
				}
			}
			samples[name] = true
			if !helps[name] || types[name] == "" {
				t.Errorf("sample %s without preceding HELP/TYPE", name)
			}
		}
	}
	if len(samples) == 0 {
		t.Fatalf("no samples in exposition:\n%s", body)
	}
	for name, typ := range types {
		want := "gauge"
		if strings.HasSuffix(name, "_total") {
			want = "counter"
		}
		if strings.HasSuffix(name, "_seconds") && typ == "histogram" {
			want = "histogram"
		}
		if typ != want {
			t.Errorf("%s declared %s, want %s", name, typ, want)
		}
	}
	for _, want := range []string{
		"reprosrv_requests_total", "reprosrv_simulations_total", "reprosrv_in_flight",
		"reprosrv_result_cache_entries",
		// The store and peer families are present (as zeros) even on a
		// standalone, storeless daemon: the exposition schema must not
		// depend on configuration.
		"reprosrv_store_hits_total", "reprosrv_store_misses_total", "reprosrv_store_writes_total",
		"reprosrv_store_evictions_total", "reprosrv_store_corrupt_total",
		"reprosrv_store_entries", "reprosrv_store_bytes",
		"reprosrv_peer_fetches_total", "reprosrv_peer_failures_total",
	} {
		if !samples[want] {
			t.Errorf("exposition missing %s", want)
		}
	}
}

// TestServeDrainsInflightRequests pins the graceful-drain contract:
// canceling Serve's context (what SIGTERM does in cmd/reprosrv) lets
// in-flight requests finish before Serve returns.
func TestServeDrainsInflightRequests(t *testing.T) {
	s, err := New(Config{DrainTimeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.testHookPreSim = func() { <-release }

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, l) }()

	reqDone := make(chan struct{})
	var status int
	var body []byte
	go func() {
		defer close(reqDone)
		resp, err := http.Post("http://"+l.Addr().String()+"/v2/run", "application/json",
			strings.NewReader(baseline))
		if err != nil {
			t.Error(err)
			return
		}
		defer resp.Body.Close()
		status = resp.StatusCode
		body, _ = io.ReadAll(resp.Body)
	}()
	for deadline := time.Now().Add(10 * time.Second); s.metrics.inflight.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("request never reached the worker pool")
		}
		time.Sleep(time.Millisecond)
	}

	cancel() // the SIGTERM path
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	<-reqDone
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("Serve = %v after drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return after the last request drained")
	}
	if status != http.StatusOK {
		t.Errorf("in-flight request finished with %d: %s", status, body)
	}
	var doc wire.RunDocumentV2
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Errorf("drained response unparseable: %v", err)
	}
}
