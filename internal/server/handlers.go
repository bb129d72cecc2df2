package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"repro"
	"repro/internal/advisor"
	"repro/internal/exec"
	"repro/internal/experiments"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/units"
	"repro/wire"
)

// maxBodyBytes bounds request bodies; every request document is tiny.
const maxBodyBytes = 1 << 20

// writeJSON renders v as indented JSON.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // nothing left to tell the client
}

// errorDoc is the wire form of a failure.
type errorDoc struct {
	Error string `json:"error"`
}

func (s *Server) fail(w http.ResponseWriter, r *http.Request, status int, err error) {
	s.countFailure(err)
	// A client that hung up gets nothing; don't count its cancellation
	// as a server error status.
	if errors.Is(err, context.Canceled) && r.Context().Err() != nil {
		return
	}
	writeJSON(w, status, errorDoc{Error: err.Error()})
}

// countFailure counts a failed request: fail calls it, and so does a
// stream that fails after its first row.  A panic that a sweep worker
// recovered into err (a /v2/sweep point, an experiment, a tournament
// entry, an advisor probe) is counted too; a flight counts its own.
func (s *Server) countFailure(err error) {
	s.metrics.errors.Add(1)
	var pe *sweep.PanicError
	if errors.As(err, &pe) {
		s.metrics.panics.Add(1)
	}
}

// statusFor maps a handler error to an HTTP status.
func statusFor(err error) int {
	switch {
	case errors.Is(err, exec.ErrSpotScheduleTooLarge), errors.Is(err, exec.ErrSpotDowntimeTooShort):
		return http.StatusBadRequest
	case errors.Is(err, errBusy):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeBody strictly decodes a bounded POST body: an unknown field
// anywhere in the document is a 400 with the offending name, never a
// silently ignored knob.
func decodeBody(r *http.Request, v any) error {
	if err := wire.DecodeStrict(http.MaxBytesReader(nil, r.Body, maxBodyBytes), v); err != nil {
		return fmt.Errorf("server: bad request body: %w", err)
	}
	return nil
}

// ---- the cache tiers ----

// tierRoute is what the tier chain needs beyond the cache key: the
// marshaled scenario document (to relay the request to its owning peer)
// and whether this request was itself relayed by a peer, in which case
// it must be answered locally -- a relayed request that forwarded again
// could loop on a misconfigured ring.
type tierRoute struct {
	scenario []byte
	relayed  bool
}

// serveCachedRun serves one deterministic simulation through the cache
// tiers -- memory LRU, disk store, owning peer, compute -- and the
// coalescing flight group.  Determinism makes every tier byte-identical
// to a cold run, so which tier answers is pure economics: memory is
// free, a disk read is cheap, a peer hop costs a LAN round trip, and a
// simulation costs seconds of CPU.  The X-Cache header names the tier
// that answered (hit, store, peer, miss).  Peer failure never fails the
// request; it degrades to local computation.  The disk read, the peer
// relay and the simulation all run inside the flight, so a thundering
// herd of identical requests costs one of whichever tier answers.
func (s *Server) serveCachedRun(w http.ResponseWriter, r *http.Request, key string, route tierRoute, simulate func(ctx context.Context) ([]byte, error)) {
	if body, ok := s.cache.Get(key); ok {
		s.serveResult(w, "hit", body)
		return
	}
	tier := "miss"
	body, shared, err := s.flights.Do(r.Context(), key, func(ctx context.Context) ([]byte, error) {
		if s.store != nil {
			if body, ok := s.store.Get(key); ok {
				tier = "store"
				s.cache.Put(key, body)
				return body, nil
			}
		}
		if !route.relayed && s.ring != nil {
			if owner := s.ring.Owner(wire.KeyHash(key)); owner != s.self {
				s.metrics.peerFetches.Add(1)
				body, err := s.relay.Run(ctx, owner, route.scenario)
				if err == nil {
					tier = "peer"
					s.cache.Put(key, body)
					return body, nil
				}
				// The owner is down or slow: degrade to computing here.
				// The result is byte-identical either way; only the
				// pool's cache locality suffers, which the counter makes
				// visible.
				s.metrics.peerFailures.Add(1)
			}
		}
		release, err := s.admit(ctx)
		if err != nil {
			return nil, err
		}
		defer release()
		if s.testHookPreSim != nil {
			s.testHookPreSim()
		}
		s.metrics.simulations.Add(1)
		body, err := simulate(ctx)
		if err != nil {
			return nil, err
		}
		// The answer waits for the memory LRU only: the disk copy is
		// written behind it, so a repeat of the key in between is a hit.
		s.cache.Put(key, body)
		if s.writer != nil {
			s.writer.enqueue(key, body)
		}
		return body, nil
	})
	if shared {
		s.metrics.coalesced.Add(1)
	}
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	s.serveResult(w, tier, body)
}

// serveResult writes one canonical result body, naming the tier that
// answered in X-Cache.
func (s *Server) serveResult(w http.ResponseWriter, tier string, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", tier)
	w.Write(body) //nolint:errcheck
}

// ---- GET /v2/experiments and /v2/experiments/{name} ----

// experimentDoc is one registry entry on the wire.
type experimentDoc struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// tableDoc is one rendered result table on the wire.
type tableDoc struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func tableDocs(tables []*report.Table) []tableDoc {
	docs := make([]tableDoc, len(tables))
	for i, t := range tables {
		docs[i] = tableDoc{Title: t.Title, Columns: t.Columns, Rows: t.Rows}
	}
	return docs
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	reg := experiments.Registry()
	docs := make([]experimentDoc, len(reg))
	for i, e := range reg {
		docs[i] = experimentDoc{Name: e.Name, Description: e.Description}
	}
	writeJSON(w, http.StatusOK, docs)
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.Lookup(name); !ok {
		s.fail(w, r, http.StatusNotFound, fmt.Errorf("server: unknown experiment %q", name))
		return
	}
	var params experiments.Params
	if seedStr := r.URL.Query().Get("seed"); seedStr != "" {
		seed, err := strconv.ParseInt(seedStr, 10, 64)
		if err != nil {
			s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: bad seed %q: %w", seedStr, err))
			return
		}
		params.Seed = &seed
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()
	tables, err := experiments.Run(r.Context(), name, params)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Name   string     `json:"name"`
		Tables []tableDoc `json:"tables"`
	}{Name: name, Tables: tableDocs(tables)})
}

// ---- advisor queries (GET /v2/advisor) ----

// advisorOption is one provisioning choice on the wire.
type advisorOption struct {
	Processors  int     `json:"processors"`
	CostDollars float64 `json:"cost_dollars"`
	Hours       float64 `json:"hours"`
}

func toAdvisorOptions(opts []advisor.Option) []advisorOption {
	out := make([]advisorOption, len(opts))
	for i, o := range opts {
		out[i] = advisorOption{Processors: o.Processors, CostDollars: o.Cost.Dollars(), Hours: o.Time.Hours()}
	}
	return out
}

// advisorQuery is the parsed, validated form of an advisor request.
type advisorQuery struct {
	spec     repro.Spec
	plan     repro.Plan
	procs    []int
	slack    float64
	deadline *units.Duration
	budget   *units.Money
}

// parseAdvisorQuery validates every parameter before any sweep runs: a
// malformed deadline or budget must cost a 400, not a full exploration.
func parseAdvisorQuery(r *http.Request) (advisorQuery, error) {
	q := r.URL.Query()
	sc := wire.Scenario{
		Version:  wire.Version,
		Workflow: wire.WorkflowSection{Name: q.Get("workflow")},
		Storage:  &wire.StorageSection{Mode: q.Get("mode")},
		Pricing:  &wire.PricingSection{Billing: "provisioned"},
	}
	if sc.Workflow.Name == "" {
		return advisorQuery{}, fmt.Errorf("server: advisor needs ?workflow= (1deg, 2deg or 4deg)")
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		return advisorQuery{}, err
	}
	out := advisorQuery{spec: spec, plan: plan, procs: repro.GeometricProcessors(), slack: 0.10}
	if list := q.Get("processors"); list != "" {
		out.procs = out.procs[:0]
		for _, field := range strings.Split(list, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(field))
			if err != nil || n <= 0 {
				return advisorQuery{}, fmt.Errorf("server: bad processor list %q", list)
			}
			out.procs = append(out.procs, n)
		}
	}
	if v := q.Get("slack"); v != "" {
		if out.slack, err = parseFinite(v); err != nil || out.slack < 0 {
			return advisorQuery{}, fmt.Errorf("server: bad slack %q", v)
		}
	}
	if v := q.Get("deadline_hours"); v != "" {
		hours, err := parseFinite(v)
		if err != nil || hours <= 0 {
			return advisorQuery{}, fmt.Errorf("server: bad deadline_hours %q", v)
		}
		d := units.Duration(hours * units.SecondsPerHour)
		out.deadline = &d
	}
	if v := q.Get("budget"); v != "" {
		dollars, err := parseFinite(v)
		if err != nil || dollars < 0 {
			return advisorQuery{}, fmt.Errorf("server: bad budget %q", v)
		}
		b := units.Money(dollars)
		out.budget = &b
	}
	return out, nil
}

// parseFinite parses a numeric query value, rejecting NaN and ±Inf:
// strconv.ParseFloat accepts both, and NaN slips past every ordering
// guard, silently dropping the answer the caller asked for.
func parseFinite(v string) (float64, error) {
	f, err := strconv.ParseFloat(v, 64)
	if err == nil && (math.IsNaN(f) || math.IsInf(f, 0)) {
		err = fmt.Errorf("non-finite value %v", f)
	}
	return f, err
}

// ---- GET /healthz and /metrics ----

// healthCache reports one cache's occupancy on /healthz.
type healthCache struct {
	Entries  int `json:"entries"`
	Capacity int `json:"capacity"`
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	resp := struct {
		Status        string       `json:"status"`
		Version       string       `json:"version"`
		UptimeSeconds float64      `json:"uptime_seconds"`
		ResultCache   healthCache  `json:"result_cache"`
		WorkflowCache healthCache  `json:"workflow_cache"`
		Store         *healthStore `json:"store,omitempty"`
	}{
		Status:        "ok",
		Version:       s.metrics.version,
		UptimeSeconds: s.metrics.uptime().Seconds(),
		ResultCache:   healthCache{Entries: s.cache.Stats().Entries, Capacity: s.cfg.CacheEntries},
		WorkflowCache: healthCache{Entries: s.wfCache.Stats().Entries, Capacity: s.cfg.WorkflowCacheEntries},
	}
	if s.store != nil {
		st := s.store.Stats()
		resp.Store = &healthStore{Entries: st.Entries, Bytes: st.Bytes, MaxBytes: st.MaxBytes, Dir: st.Dir}
	}
	writeJSON(w, http.StatusOK, resp)
}

// healthStore is the /healthz block describing the disk store; present
// only when a store directory is configured.
type healthStore struct {
	Entries  int    `json:"entries"`
	Bytes    int64  `json:"bytes"`
	MaxBytes int64  `json:"max_bytes"`
	Dir      string `json:"dir"`
}

// storeStats snapshots the disk store, or a zero Stats when the store
// is disabled; metric families are emitted either way so the exposition
// schema is identical across configurations.
func (s *Server) storeStats() store.Stats {
	if s.store == nil {
		return store.Stats{}
	}
	return s.store.Stats()
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.write(w, s.cache.Stats(), s.wfCache.Stats(), s.storeStats())
}
