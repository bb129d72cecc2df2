package server

// Tests for the flight-recorder surface: traced POST /v2/run documents,
// the GET /v2/run NDJSON trace stream, the request-telemetry headers
// and the stable /metrics exposition order.

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/url"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/wire"
)

// tracedSpotScenario is a seeded spot scenario known to preempt: the
// flight recorder must see revocations, checkpoints and restarts.
const tracedSpotScenario = `{
	"version": 2,
	"workflow": {"name": "1deg"},
	"fleet": {"processors": 16, "reliable": 4},
	"spot": {"rate_per_hour": 1.5, "seed": 7, "discount": 0.65},
	"recovery": {"checkpoint_seconds": 300, "checkpoint_overhead_seconds": 10, "checkpoint_bytes": 500000000},
	"trace": true
}`

func kindCounts(timeline []obs.Event) map[string]int {
	got := map[string]int{}
	for _, e := range timeline {
		got[e.Kind]++
	}
	return got
}

// TestRunV2TracedTimeline is the flight-recorder acceptance test: a
// traced run of the seeded spot scenario returns a non-empty timeline
// containing revocations, checkpoints and restarts, is deterministic
// across repeated requests, bypasses the result cache -- and leaves the
// untraced twin's cached, byte-identical responses untouched.
func TestRunV2TracedTimeline(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, cold := postJSON(t, ts.URL+"/v2/run", tracedSpotScenario)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, cold)
	}
	if got := resp.Header.Get("X-Cache"); got != "bypass" {
		t.Errorf("traced run X-Cache = %q, want bypass", got)
	}
	var doc wire.RunDocumentV2
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Scenario.Trace {
		t.Error("traced document does not echo scenario.trace")
	}
	if len(doc.Timeline) == 0 {
		t.Fatal("traced run returned an empty timeline")
	}
	counts := kindCounts(doc.Timeline)
	for _, kind := range []string{obs.KindRevoke, obs.KindCheckpoint, obs.KindRestart, obs.KindStart, obs.KindFinish} {
		if counts[kind] == 0 {
			t.Errorf("timeline has no %q events (kinds seen: %v)", kind, counts)
		}
	}
	if len(doc.CriticalPath) == 0 {
		t.Error("traced run returned no critical-path summary")
	}

	// Determinism: the repeat re-simulates (bypass, not hit) yet is
	// byte-identical.
	resp2, again := postJSON(t, ts.URL+"/v2/run", tracedSpotScenario)
	if got := resp2.Header.Get("X-Cache"); got != "bypass" {
		t.Errorf("traced repeat X-Cache = %q, want bypass", got)
	}
	if string(again) != string(cold) {
		t.Error("traced repeat differs from first traced run; timeline is nondeterministic")
	}

	// The untraced twin still caches, and tracing did not perturb the
	// simulation: its metrics equal the traced run's.
	untraced := strings.Replace(tracedSpotScenario, `,
	"trace": true`, "", 1)
	respU, coldU := postJSON(t, ts.URL+"/v2/run", untraced)
	if got := respU.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("untraced first run X-Cache = %q, want miss", got)
	}
	respU2, hitU := postJSON(t, ts.URL+"/v2/run", untraced)
	if got := respU2.Header.Get("X-Cache"); got != "hit" {
		t.Errorf("untraced repeat X-Cache = %q, want hit", got)
	}
	if string(hitU) != string(coldU) {
		t.Error("cached untraced body differs from cold")
	}
	var docU wire.RunDocumentV2
	if err := json.Unmarshal(coldU, &docU); err != nil {
		t.Fatal(err)
	}
	tracedM, _ := json.Marshal(doc.Metrics)
	untracedM, _ := json.Marshal(docU.Metrics)
	if string(tracedM) != string(untracedM) {
		t.Errorf("tracing perturbed the simulation:\ntraced   %s\nuntraced %s", tracedM, untracedM)
	}
	if len(docU.Timeline) != 0 {
		t.Error("untraced document carries a timeline")
	}
}

// TestTraceStreamV2 checks the GET /v2/run NDJSON stream: one
// {"event": ...} line per timeline event followed by a terminal
// {"done": ...} envelope whose counts match.
func TestTraceStreamV2(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v2/run?scenario=" + url.QueryEscape(tracedSpotScenario))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}

	var events int
	var done *wire.TraceDone
	counts := map[string]int{}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if done != nil {
			t.Fatalf("line after done envelope: %s", sc.Text())
		}
		var env wire.TraceEnvelope
		if err := json.Unmarshal(sc.Bytes(), &env); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		switch {
		case env.Event != nil:
			if env.Event.Seq != events {
				t.Fatalf("event seq %d at stream position %d", env.Event.Seq, events)
			}
			counts[env.Event.Kind]++
			events++
		case env.Done != nil:
			done = env.Done
		case env.Error != "":
			t.Fatalf("stream error: %s", env.Error)
		default:
			t.Fatalf("empty envelope: %s", sc.Text())
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if done == nil {
		t.Fatal("stream ended without a done envelope (truncated)")
	}
	if done.Events != events || events == 0 {
		t.Errorf("done.events = %d, streamed %d", done.Events, events)
	}
	if counts[obs.KindRevoke] == 0 || counts[obs.KindRestart] == 0 {
		t.Errorf("trace stream saw no preemption (kinds: %v)", counts)
	}
	if len(done.CriticalPath) == 0 {
		t.Error("done envelope has no critical-path summary")
	}
	if done.Total <= 0 {
		t.Errorf("done.total = %v", done.Total)
	}
}

// TestTraceStreamV2RejectsBadScenarios pins the error paths of the GET
// surface: a missing and a malformed ?scenario= both 400.
func TestTraceStreamV2RejectsBadScenarios(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, query := range map[string]string{
		"missing":       "",
		"not json":      "?scenario=" + url.QueryEscape("{"),
		"unknown field": "?scenario=" + url.QueryEscape(`{"version":2,"workflow":{"name":"1deg"},"bogus":1}`),
	} {
		resp, body := getBody(t, ts.URL+"/v2/run"+query)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", name, resp.StatusCode, body)
		}
	}
}

// TestRequestIDHeader checks the telemetry wrapper: every response
// carries an X-Request-Id, and a caller-supplied one is echoed back so
// IDs propagate through proxies.
func TestRequestIDHeader(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, _ := getBody(t, ts.URL+"/healthz")
	if resp.Header.Get("X-Request-Id") == "" {
		t.Error("response has no X-Request-Id")
	}
	req, err := http.NewRequest("GET", ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-Id", "caller-supplied-42")
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-Id"); got != "caller-supplied-42" {
		t.Errorf("X-Request-Id = %q, want the caller's", got)
	}
}

// TestHealthzEnriched checks the health document's operational fields.
func TestHealthzEnriched(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheEntries: 7, WorkflowCacheEntries: 3})
	postRun(t, ts, baseline)
	_, body := getBody(t, ts.URL+"/healthz")
	var h struct {
		Status        string  `json:"status"`
		Version       string  `json:"version"`
		UptimeSeconds float64 `json:"uptime_seconds"`
		ResultCache   struct {
			Entries  int `json:"entries"`
			Capacity int `json:"capacity"`
		} `json:"result_cache"`
		WorkflowCache struct {
			Entries  int `json:"entries"`
			Capacity int `json:"capacity"`
		} `json:"workflow_cache"`
	}
	if err := json.Unmarshal(body, &h); err != nil {
		t.Fatalf("healthz not JSON: %v: %s", err, body)
	}
	if h.Status != "ok" || h.Version != "dev" {
		t.Errorf("healthz status/version = %q/%q", h.Status, h.Version)
	}
	if h.UptimeSeconds < 0 {
		t.Errorf("uptime_seconds = %v", h.UptimeSeconds)
	}
	if h.ResultCache.Capacity != 7 || h.WorkflowCache.Capacity != 3 {
		t.Errorf("cache capacities = %d/%d, want 7/3", h.ResultCache.Capacity, h.WorkflowCache.Capacity)
	}
	if h.ResultCache.Entries != 1 || h.WorkflowCache.Entries != 1 {
		t.Errorf("cache entries = %d/%d after one run, want 1/1", h.ResultCache.Entries, h.WorkflowCache.Entries)
	}
}

// TestMetricsFamilyOrderStable pins the exposition order: families are
// sorted by name and two scrapes list them identically, no matter in
// which order the lazily created endpoint labels first appeared.
func TestMetricsFamilyOrderStable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// Touch endpoints in an order unlike the sorted one.
	getBody(t, ts.URL+"/healthz")
	postRun(t, ts, baseline)
	getBody(t, ts.URL+"/v2/experiments")

	familyOrder := func(body []byte) []string {
		var names []string
		for _, line := range strings.Split(string(body), "\n") {
			if strings.HasPrefix(line, "# TYPE ") {
				names = append(names, strings.Fields(line)[2])
			}
		}
		return names
	}
	_, first := getBody(t, ts.URL+"/metrics")
	order := familyOrder(first)
	if len(order) == 0 {
		t.Fatal("no TYPE lines in exposition")
	}
	for i := 1; i < len(order); i++ {
		if order[i-1] >= order[i] {
			t.Errorf("families out of order: %q before %q", order[i-1], order[i])
		}
	}
	_, second := getBody(t, ts.URL+"/metrics")
	if got := familyOrder(second); strings.Join(got, ",") != strings.Join(order, ",") {
		t.Errorf("family order changed between scrapes:\nfirst  %v\nsecond %v", order, got)
	}
}

// TestMetricsLatencyHistogram checks the per-endpoint duration family:
// cumulative buckets, a +Inf bound equal to the count, and sum/count
// samples for an endpoint that served a request.
func TestMetricsLatencyHistogram(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postRun(t, ts, baseline)
	_, body := getBody(t, ts.URL+"/metrics")
	for _, want := range []string{
		`# TYPE reprosrv_request_duration_seconds histogram`,
		`reprosrv_request_duration_seconds_bucket{endpoint="run_v2",le="+Inf"} 1`,
		`reprosrv_request_duration_seconds_count{endpoint="run_v2"} 1`,
		`reprosrv_request_duration_seconds_sum{endpoint="run_v2"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
