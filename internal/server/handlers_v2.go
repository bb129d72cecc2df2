package server

// The scenario endpoints: every one speaks the declarative ScenarioSpec
// (wire.Scenario).  /v2/run caches and coalesces through the tier
// chain; /v2/sweep streams any-scenario-path axis grids; /v2/advisor
// returns each recommendation as a ready-to-POST scenario; and
// /v2/experiments accepts experiment parameters -- including a full
// scenario grid -- as a POST body.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"repro"
	"repro/internal/advisor"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/shard"
	"repro/internal/sweep"
	"repro/wire"
)

// ---- POST /v2/run ----

func (s *Server) handleRunV2(w http.ResponseWriter, r *http.Request) {
	var sc wire.Scenario
	if err := decodeBody(r, &sc); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	// Traced runs bypass the result cache entirely: timeline-bearing
	// documents would bloat the LRU, and the cache key deliberately
	// ignores the trace knob so untraced requests keep hitting the
	// byte-identical cached body.
	if sc.Trace {
		s.serveTracedRun(w, r, spec, plan)
		return
	}
	route := tierRoute{relayed: r.Header.Get(shard.RelayHeader) != ""}
	if s.ring != nil && !route.relayed {
		raw, err := json.Marshal(sc)
		if err != nil {
			s.fail(w, r, http.StatusInternalServerError, err)
			return
		}
		route.scenario = raw
	}
	s.serveCachedRun(w, r, wire.CanonicalRunKeyV2(spec, plan), route, func(ctx context.Context) ([]byte, error) {
		wf, err := s.wfCache.Generate(spec)
		if err != nil {
			return nil, err
		}
		res, err := repro.RunContext(ctx, wf, plan)
		if err != nil {
			return nil, err
		}
		return wire.NewRunDocumentV2(spec, res).Encode()
	})
}

// runTraced executes one flight-recorded simulation inside a worker
// slot and returns the result together with its recorder.  Shared by
// the POST trace bypass and the GET trace stream.
func (s *Server) runTraced(r *http.Request, spec repro.Spec, plan repro.Plan) (repro.Result, *obs.Recorder, error) {
	release, err := s.admit(r.Context())
	if err != nil {
		return repro.Result{}, nil, err
	}
	defer release()
	wf, err := s.wfCache.Generate(spec)
	if err != nil {
		return repro.Result{}, nil, err
	}
	rec := obs.NewRecorder(0)
	plan.Recorder = rec
	s.metrics.simulations.Add(1)
	res, err := repro.RunContext(r.Context(), wf, plan)
	if err != nil {
		return repro.Result{}, nil, err
	}
	return res, rec, nil
}

// serveTracedRun answers a trace:true POST /v2/run with the full traced
// document (timeline and critical path inline).
func (s *Server) serveTracedRun(w http.ResponseWriter, r *http.Request, spec repro.Spec, plan repro.Plan) {
	res, rec, err := s.runTraced(r, spec, plan)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	body, err := wire.NewTracedRunDocumentV2(spec, res, rec).Encode()
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Cache", "bypass")
	w.Write(body) //nolint:errcheck
}

// ---- GET /v2/run ----

// handleRunTraceV2 streams a traced run's timeline as NDJSON: one
// {"event": ...} line per flight-recorder event in causal order, then a
// terminal {"done": ...} envelope carrying the event count, the
// critical-path summary and the run's bottom line.  The scenario rides
// the ?scenario= query parameter (URL-encoded JSON); its trace field is
// implied by the route.
func (s *Server) handleRunTraceV2(w http.ResponseWriter, r *http.Request) {
	raw := r.URL.Query().Get("scenario")
	if raw == "" {
		s.fail(w, r, http.StatusBadRequest,
			fmt.Errorf("server: GET /v2/run needs a ?scenario= query parameter (URL-encoded scenario JSON)"))
		return
	}
	var sc wire.Scenario
	if err := wire.DecodeStrict(strings.NewReader(raw), &sc); err != nil {
		s.fail(w, r, http.StatusBadRequest, fmt.Errorf("server: bad scenario: %w", err))
		return
	}
	spec, plan, err := sc.Resolve()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	res, rec, err := s.runTraced(r, spec, plan)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	events := rec.Events()
	for i := range events {
		if err := enc.Encode(wire.TraceEnvelope{Event: &events[i]}); err != nil {
			return // client hung up mid-stream; nothing left to tell it
		}
		if flusher != nil && i%256 == 255 {
			flusher.Flush()
		}
	}
	enc.Encode(wire.TraceEnvelope{Done: &wire.TraceDone{ //nolint:errcheck
		Events:       len(events),
		Dropped:      rec.Dropped(),
		CriticalPath: obs.CriticalPath(events, wire.CriticalPathTopK),
		Total:        res.Cost.Total(),
	}})
}

// ---- POST /v2/sweep ----

func (s *Server) handleSweepV2(w http.ResponseWriter, r *http.Request) {
	var req wire.SweepRequest
	if err := decodeBody(r, &req); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	// Every point resolves before the first row streams, so a malformed
	// combination is a clean 400 instead of a mid-stream error envelope.
	grid, err := req.ResolveGrid()
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}

	// A sweep holds one worker slot; its grid fans out on the sweep
	// engine's own GOMAXPROCS pool, like every nested sweep in the repo.
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	rows := 0
	// Rows stream in grid order as soon as each point (and every earlier
	// one) finishes; r.Context() cancellation -- the client hanging up --
	// drains the whole grid.  Workflow generation goes through the
	// bounded server cache: axes over workflow.* make specs vary per
	// point, and each distinct spec pins a multi-thousand-task DAG.
	err = sweep.Stream(r.Context(), 0, grid,
		func(ctx context.Context, i int, p wire.ResolvedPoint) (wire.RunDocumentV2, error) {
			if s.testHookSweepPoint != nil {
				if err := s.testHookSweepPoint(i); err != nil {
					return wire.RunDocumentV2{}, err
				}
			}
			return s.sweepPoint(ctx, p)
		},
		func(i int, doc wire.RunDocumentV2) error {
			row := wire.SweepRow{Index: i, RunDocumentV2: doc}
			if err := enc.Encode(wire.SweepEnvelope{Row: &row}); err != nil {
				return err
			}
			rows++
			if flusher != nil {
				flusher.Flush()
			}
			return nil
		})
	if err != nil {
		if rows == 0 {
			s.fail(w, r, statusFor(err), err)
			return
		}
		// Mid-stream the status line is gone; emit the terminal error
		// envelope instead (unless the client already hung up).
		s.countFailure(err)
		if r.Context().Err() == nil {
			enc.Encode(wire.SweepEnvelope{Error: err.Error()}) //nolint:errcheck
		}
		return
	}
	enc.Encode(wire.SweepEnvelope{Done: &wire.SweepDone{Rows: rows}}) //nolint:errcheck
}

// sweepPoint produces one grid point's document through the v2 tiers.
// A point owned by a peer is fetched from it as a standalone /v2/run
// request -- every materialized point scenario is directly POSTable --
// which splits the grid across the pool and warms each owner's caches;
// any peer failure degrades that point to local computation.  Local
// points consult the disk store before simulating and persist what they
// compute, so sweeps both feed and benefit from the same
// content-addressed tier as /v2/run.  Round-tripping a stored or
// relayed body through DecodeStrict is lossless here: result documents
// carry no maps and no custom marshalers, so they re-encode
// byte-identically and a row is the same bytes no matter which tier
// produced it.
func (s *Server) sweepPoint(ctx context.Context, p wire.ResolvedPoint) (wire.RunDocumentV2, error) {
	key := wire.CanonicalRunKeyV2(p.Spec, p.Plan)
	if s.ring != nil {
		if owner := s.ring.Owner(wire.KeyHash(key)); owner != s.self {
			if doc, ok := s.fetchPeerDoc(ctx, owner, p.Scenario); ok {
				return doc, nil
			}
		}
	}
	if s.store != nil {
		if body, ok := s.store.Get(key); ok {
			var doc wire.RunDocumentV2
			if err := wire.DecodeStrict(bytes.NewReader(body), &doc); err == nil {
				return doc, nil
			}
		}
	}
	wf, err := s.wfCache.Generate(p.Spec)
	if err != nil {
		return wire.RunDocumentV2{}, err
	}
	res, err := repro.RunContext(ctx, wf, p.Plan)
	if err != nil {
		return wire.RunDocumentV2{}, err
	}
	doc := wire.NewRunDocumentV2(p.Spec, res)
	if s.writer != nil {
		if body, err := doc.Encode(); err == nil {
			s.writer.enqueue(key, body)
		}
	}
	return doc, nil
}

// fetchPeerDoc relays one scenario to its owning replica and decodes
// the canonical result body.  false means "compute it here instead":
// the relay path is an optimization, never a dependency.
func (s *Server) fetchPeerDoc(ctx context.Context, owner string, sc wire.Scenario) (wire.RunDocumentV2, bool) {
	raw, err := json.Marshal(sc)
	if err != nil {
		return wire.RunDocumentV2{}, false
	}
	s.metrics.peerFetches.Add(1)
	body, err := s.relay.Run(ctx, owner, raw)
	if err == nil {
		var doc wire.RunDocumentV2
		if err := wire.DecodeStrict(bytes.NewReader(body), &doc); err == nil {
			return doc, true
		}
	}
	s.metrics.peerFailures.Add(1)
	return wire.RunDocumentV2{}, false
}

// ---- GET /v2/advisor ----

// advisorChoiceV2 is one provisioning choice with the scenario that
// reproduces it: the recommendation is directly POSTable to /v2/run.
type advisorChoiceV2 struct {
	Processors  int           `json:"processors"`
	CostDollars float64       `json:"cost_dollars"`
	Hours       float64       `json:"hours"`
	Scenario    wire.Scenario `json:"scenario"`
}

func (s *Server) handleAdvisorV2(w http.ResponseWriter, r *http.Request) {
	aq, err := parseAdvisorQuery(r)
	if err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()
	wf, err := s.wfCache.Generate(aq.spec)
	if err != nil {
		s.fail(w, r, http.StatusInternalServerError, err)
		return
	}
	opts, err := advisor.Explore(r.Context(), wf, aq.procs, aq.plan)
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	choice := func(o advisor.Option) *advisorChoiceV2 {
		plan := aq.plan
		plan.Processors = o.Processors
		return &advisorChoiceV2{
			Processors:  o.Processors,
			CostDollars: o.Cost.Dollars(),
			Hours:       o.Time.Hours(),
			Scenario:    wire.EchoScenario(aq.spec, plan),
		}
	}
	resp := struct {
		Workflow    string           `json:"workflow"`
		Options     []advisorOption  `json:"options"`
		Pareto      []advisorOption  `json:"pareto"`
		Recommended *advisorChoiceV2 `json:"recommended,omitempty"`
		Cheapest    *advisorChoiceV2 `json:"cheapest_within_deadline,omitempty"`
		Fastest     *advisorChoiceV2 `json:"fastest_under_budget,omitempty"`
	}{
		Workflow: aq.spec.Name,
		Options:  toAdvisorOptions(opts),
		Pareto:   toAdvisorOptions(advisor.ParetoFrontier(opts)),
	}
	if rec, err := advisor.Recommend(opts, aq.slack); err == nil {
		resp.Recommended = choice(rec)
	}
	if aq.deadline != nil {
		if o, err := advisor.CheapestWithin(opts, *aq.deadline); err == nil {
			resp.Cheapest = choice(o)
		}
	}
	if aq.budget != nil {
		if o, err := advisor.FastestUnder(opts, *aq.budget); err == nil {
			resp.Fastest = choice(o)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// ---- POST /v2/experiments/{name} ----

// experimentParamsDoc is the POST body of a v2 experiment invocation:
// the wire form of experiments.Params.  (policy-tournament has its own
// POST route streaming NDJSON; scenario/bundles here serve any future
// table-shaped policy experiments.)
type experimentParamsDoc struct {
	Seed     *int64                 `json:"seed,omitempty"`
	Grid     *wire.SweepRequest     `json:"grid,omitempty"`
	Scenario *wire.Scenario         `json:"scenario,omitempty"`
	Bundles  []wire.PoliciesSection `json:"bundles,omitempty"`
}

func (s *Server) handleExperimentV2(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := experiments.Lookup(name); !ok {
		s.fail(w, r, http.StatusNotFound, fmt.Errorf("server: unknown experiment %q", name))
		return
	}
	var doc experimentParamsDoc
	if r.ContentLength != 0 {
		if err := decodeBody(r, &doc); err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
	}
	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()
	tables, err := experiments.Run(r.Context(), name, experiments.Params{
		Seed: doc.Seed, Grid: doc.Grid, Scenario: doc.Scenario, Bundles: doc.Bundles,
	})
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		Name   string     `json:"name"`
		Tables []tableDoc `json:"tables"`
	}{Name: name, Tables: tableDocs(tables)})
}

// ---- POST /v2/experiments/policy-tournament ----

// handleTournamentV2 streams a policy tournament as NDJSON: one row per
// bundle in entry order, then a terminal done envelope carrying the
// ranking (best bundle first).  The exact-path route wins over the
// generic POST /v2/experiments/{name} handler.
func (s *Server) handleTournamentV2(w http.ResponseWriter, r *http.Request) {
	var req wire.TournamentRequest
	if r.ContentLength != 0 {
		if err := decodeBody(r, &req); err != nil {
			s.fail(w, r, http.StatusBadRequest, err)
			return
		}
	}
	base := experiments.DefaultTournamentScenario()
	if req.Scenario != nil {
		base = *req.Scenario
	}
	bundles := experiments.DefaultTournamentBundles()
	if len(req.Bundles) > 0 {
		bundles = req.Bundles
	}
	if req.Seed != nil {
		base = experiments.ReseedSpot(base, *req.Seed)
	}
	// Every entry resolves before the first row streams, so a malformed
	// bundle is a clean 400 instead of a mid-stream error envelope.
	if _, err := experiments.TournamentEntries(base, bundles); err != nil {
		s.fail(w, r, http.StatusBadRequest, err)
		return
	}

	release, err := s.admit(r.Context())
	if err != nil {
		s.fail(w, r, statusFor(err), err)
		return
	}
	defer release()

	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	var rows []experiments.TournamentRow
	err = experiments.TournamentStream(r.Context(), base, bundles, func(row experiments.TournamentRow) error {
		doc := wire.TournamentRow{
			Index:         row.Entry.Index,
			Bundle:        row.Entry.Bundle,
			RunDocumentV2: wire.NewRunDocumentV2(row.Entry.Spec, row.Result),
		}
		if err := enc.Encode(wire.TournamentEnvelope{Row: &doc}); err != nil {
			return err
		}
		rows = append(rows, row)
		if flusher != nil {
			flusher.Flush()
		}
		return nil
	})
	if err != nil {
		if len(rows) == 0 {
			s.fail(w, r, statusFor(err), err)
			return
		}
		s.countFailure(err)
		if r.Context().Err() == nil {
			enc.Encode(wire.TournamentEnvelope{Error: err.Error()}) //nolint:errcheck
		}
		return
	}
	enc.Encode(wire.TournamentEnvelope{Done: &wire.TournamentDone{ //nolint:errcheck
		Rows:    len(rows),
		Ranking: experiments.RankTournament(rows),
	}})
}
