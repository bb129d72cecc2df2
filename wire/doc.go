package wire

import (
	"repro/internal/core"
	"repro/internal/cost"
	"repro/internal/exec"
	"repro/internal/montage"
	"repro/internal/obs"
	"repro/internal/units"
)

// ---- run documents ----

// UtilizationDocument splits CPU utilization by sub-pool: consumption
// over the capacity that was actually available in each, the numbers a
// fleet-sizing dashboard plots per market.
type UtilizationDocument struct {
	// Overall is CPUSeconds over the whole fleet's capacity integral.
	Overall float64 `json:"overall"`
	// Reliable is the on-demand sub-pool's busy share; 0 on a fleet with
	// no reliable floor.
	Reliable float64 `json:"reliable"`
	// Spot is the revocable sub-pool's busy share over its (revocation-
	// shrunk) capacity integral.
	Spot float64 `json:"spot"`
}

// RunDocumentV2 is the machine-readable result of one simulation: the
// document POST /v2/run returns and montagesim -run/-scenario -json
// print.  Scenario is the canonical (defaults filled) form of the
// request, so a response can be re-POSTed or diffed against the input.
type RunDocumentV2 struct {
	Version     int                 `json:"version"`
	Workflow    string              `json:"workflow"`
	Tasks       int                 `json:"tasks"`
	Scenario    Scenario            `json:"scenario"`
	Metrics     exec.Metrics        `json:"metrics"`
	Utilization UtilizationDocument `json:"utilization"`
	Cost        cost.Breakdown      `json:"cost"`
	Total       units.Money         `json:"total"`
	// Timeline is the flight-recorder event sequence of a traced run
	// (scenario.trace), in causal order.  Omitted on untraced runs, so
	// every pre-trace document encodes byte-identically.
	Timeline []obs.Event `json:"timeline,omitempty"`
	// CriticalPath ranks the traced run's top tasks by blocking time
	// (processor occupancy plus ready-queue wait), the place an
	// optimizer should look first.
	CriticalPath []obs.PathEntry `json:"critical_path,omitempty"`
}

// NewRunDocumentV2 builds the v2 wire document for a finished run.
func NewRunDocumentV2(spec montage.Spec, res core.Result) RunDocumentV2 {
	m := res.Metrics
	return RunDocumentV2{
		Version:  Version,
		Workflow: m.Workflow,
		Tasks:    m.TasksRun,
		Scenario: EchoScenario(spec, res.Plan),
		Metrics:  m,
		Utilization: UtilizationDocument{
			Overall:  m.Utilization,
			Reliable: ratio(m.CPUSeconds-m.SpotCPUSeconds, m.ReliableCapacityProcSeconds),
			Spot:     ratio(m.SpotCPUSeconds, m.SpotCapacityProcSeconds),
		},
		Cost:  res.Cost,
		Total: res.Cost.Total(),
	}
}

// Encode renders the document in the canonical wire encoding.
func (d RunDocumentV2) Encode() ([]byte, error) { return encode(d) }

// CriticalPathTopK is how many tasks a traced document's critical-path
// summary ranks: enough to see where the time went, small enough to
// read.
const CriticalPathTopK = 10

// NewTracedRunDocumentV2 builds the v2 document for a traced run: the
// plain document plus the recorder's timeline and critical-path
// summary, with scenario.trace echoed true so the response stays
// re-POSTable as the traced request it answers.
func NewTracedRunDocumentV2(spec montage.Spec, res core.Result, rec *obs.Recorder) RunDocumentV2 {
	doc := NewRunDocumentV2(spec, res)
	doc.Scenario.Trace = true
	doc.Timeline = rec.Events()
	doc.CriticalPath = obs.CriticalPath(rec.Events(), CriticalPathTopK)
	return doc
}

// ratio guards a utilization division: an empty sub-pool reports 0,
// never NaN or Inf (encoding/json rejects non-finite floats).
func ratio(num, den float64) float64 {
	if den <= 0 {
		return 0
	}
	return num / den
}

// ---- sweep stream ----

// SweepRow is one grid point's result within a sweep stream: the
// grid index plus the full run document (whose Scenario field is this
// point's materialized scenario).
type SweepRow struct {
	Index int `json:"index"`
	RunDocumentV2
}

// SweepDone is the success sentinel of a sweep stream: how many rows
// were streamed.
type SweepDone struct {
	Rows int `json:"rows"`
}

// SweepEnvelope is one NDJSON line of a sweep response.  Exactly one
// field is set, so a client can always tell what it is reading:
//
//	{"row": {...}}          one grid point, in grid order
//	{"done": {"rows": N}}   terminal: the grid completed
//	{"error": "..."}        terminal: the sweep failed mid-stream
//
// The terminal line is the truncation detector -- the HTTP status line
// is long gone by the time a mid-grid point fails, so a stream that
// ends without "done" or "error" was cut off.
type SweepEnvelope struct {
	Row   *SweepRow  `json:"row,omitempty"`
	Done  *SweepDone `json:"done,omitempty"`
	Error string     `json:"error,omitempty"`
}

// ---- trace stream ----

// TraceDone is the terminal line of a trace stream: the event count,
// how many events the recorder's bound dropped, the critical-path
// summary and the run's bottom line.
type TraceDone struct {
	Events       int             `json:"events"`
	Dropped      int             `json:"dropped,omitempty"`
	CriticalPath []obs.PathEntry `json:"critical_path,omitempty"`
	Total        units.Money     `json:"total"`
}

// TraceEnvelope is one NDJSON line of a GET /v2/run trace stream.
// Exactly one field is set per line:
//
//	{"event": {...}}   one timeline event, in causal order
//	{"done": {...}}    terminal: the run completed
//	{"error": "..."}   terminal: the run failed
//
// As with sweeps, a stream that ends without "done" or "error" was
// truncated.
type TraceEnvelope struct {
	Event *obs.Event `json:"event,omitempty"`
	Done  *TraceDone `json:"done,omitempty"`
	Error string     `json:"error,omitempty"`
}
