package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/montage"
	"repro/internal/report"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/wire"
)

// The replay runs the generated inputs in-process through each layer's
// public functions, in the order internal/server calls them.  Untraced,
// it computes the bodies every daemon response is compared with;
// traced, its spans give the per-layer times.

// runReplayer replays /v2/run ops.
type runReplayer struct {
	tr  *tracer
	wfc *montage.Cache // sized like the daemon's workflow cache
	// st stands in for the daemon's disk tier: misses probe it before
	// simulating and persist into it; nil skips the store layer.
	st *store.Store
}

// run replays op, which the daemon answered from tier (its X-Cache),
// and returns the body it should have served.  A memory hit stops after
// the key (nil body: the caller knows the body by key); a store hit
// stops after the store read.
func (r *runReplayer) run(ctx context.Context, op int, body []byte, tier string) ([]byte, error) {
	tr := r.tr
	root := tr.begin(op, -1, "op.run")
	defer tr.end(root, 0, 0)

	sp := tr.begin(op, root, "wire.decode")
	var sc wire.Scenario
	err := wire.DecodeStrict(bytes.NewReader(body), &sc)
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, root, "wire.resolve")
	spec, plan, err := sc.Resolve()
	tr.end(sp, 0, 0)
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, root, "wire.key")
	key := wire.CanonicalRunKeyV2(spec, plan)
	tr.end(sp, 0, 0)
	if tier == "hit" {
		return nil, nil
	}

	if r.st != nil {
		sp = tr.begin(op, root, "store.get")
		stored, ok := r.st.Get(key)
		tr.end(sp, float64(len(stored)), 0)
		if ok {
			return stored, nil
		}
		if tier == "store" {
			return nil, fmt.Errorf("the replay store has no entry for an op the daemon served from its store")
		}
	}
	sp = tr.begin(op, root, "montage.generate")
	wf, err := r.wfc.Generate(spec)
	if err != nil {
		tr.end(sp, 0, 0)
		return nil, err
	}
	tr.end(sp, float64(wf.NumTasks()), 0)
	sp = tr.begin(op, root, "core.run")
	res, err := core.RunContext(ctx, wf, plan)
	m := res.Metrics
	tr.end(sp, float64(m.TasksRun), float64(m.TasksRun+m.Retries+m.Preempted))
	if err != nil {
		return nil, err
	}
	sp = tr.begin(op, root, "wire.encode")
	out, err := wire.NewRunDocumentV2(spec, res).Encode()
	tr.end(sp, float64(len(out)), 0)
	if err != nil {
		return nil, err
	}
	if r.st != nil {
		sp = tr.begin(op, root, "store.put")
		err = r.st.Put(key, out)
		tr.end(sp, float64(len(out)), 0)
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// computeBodies replays every scenario as a miss on GOMAXPROCS workers
// (op ids start at firstOp) and returns the bodies in order.
func (r *runReplayer) computeBodies(ctx context.Context, firstOp int, ss []scenario) ([][]byte, error) {
	return sweep.Map(ctx, 0, ss, func(ctx context.Context, i int, s scenario) ([]byte, error) {
		return r.run(ctx, firstOp+i, s.body, "miss")
	})
}

// openStore opens a store the way the daemon does.
func openStore(dir string) (*store.Store, error) {
	return store.Open(dir, store.Options{MaxBytes: 1 << 30, WireVersion: wire.Version})
}

// passResult is what one batch-eval pass should return.
type passResult struct {
	tables [][]*report.Table // per experiment, registry order
	sweep  []byte            // the NDJSON stream, terminal envelope included
}

// sweepTiming is what a traced sweep adds beyond its spans.
type sweepTiming struct {
	firstRow time.Duration // from the start of sweep.Stream
}

// replayPass runs one batch-eval pass in-process as the daemon would:
// each experiment through the registry, then the sweep decoded,
// expanded, streamed through sweep.Stream and encoded row by row.
func replayPass(ctx context.Context, tr *tracer, op int, p batchPass, wfc *montage.Cache) (passResult, sweepTiming, error) {
	var out passResult
	var timing sweepTiming
	root := tr.begin(op, -1, "op.pass")
	defer tr.end(root, 0, 0)
	for _, e := range p.experiments {
		sp := tr.begin(op, root, "experiments.run")
		tr.setLabel(sp, e.name)
		tables, err := experiments.Run(ctx, e.name, experiments.Params{Seed: e.seed})
		tr.end(sp, 0, 0)
		if err != nil {
			return out, timing, err
		}
		out.tables = append(out.tables, tables)
	}

	sp := tr.begin(op, root, "wire.decode")
	var req wire.SweepRequest
	err := wire.DecodeStrict(bytes.NewReader(p.sweep), &req)
	tr.end(sp, 0, 0)
	if err != nil {
		return out, timing, err
	}
	sp = tr.begin(op, root, "wire.grid")
	grid, err := req.ResolveGrid()
	tr.end(sp, float64(len(grid)), 0)
	if err != nil {
		return out, timing, err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	stream := tr.begin(op, root, "sweep.stream")
	start := time.Now()
	timing.firstRow = -1
	err = sweep.Stream(ctx, 0, grid,
		func(ctx context.Context, i int, pt wire.ResolvedPoint) (wire.RunDocumentV2, error) {
			ps := tr.begin(op, stream, "sweep.point")
			defer tr.end(ps, 0, 0)
			sp := tr.begin(op, ps, "wire.key")
			_ = wire.CanonicalRunKeyV2(pt.Spec, pt.Plan)
			tr.end(sp, 0, 0)
			sp = tr.begin(op, ps, "montage.generate")
			wf, err := wfc.Generate(pt.Spec)
			if err != nil {
				tr.end(sp, 0, 0)
				return wire.RunDocumentV2{}, err
			}
			tr.end(sp, float64(wf.NumTasks()), 0)
			sp = tr.begin(op, ps, "core.run")
			res, err := core.RunContext(ctx, wf, pt.Plan)
			m := res.Metrics
			tr.end(sp, float64(m.TasksRun), float64(m.TasksRun+m.Retries+m.Preempted))
			if err != nil {
				return wire.RunDocumentV2{}, err
			}
			return wire.NewRunDocumentV2(pt.Spec, res), nil
		},
		func(i int, doc wire.RunDocumentV2) error {
			if timing.firstRow < 0 {
				timing.firstRow = time.Since(start)
			}
			sp := tr.begin(op, stream, "wire.encode")
			n := buf.Len()
			err := enc.Encode(wire.SweepEnvelope{Row: &wire.SweepRow{Index: i, RunDocumentV2: doc}})
			tr.end(sp, float64(buf.Len()-n), 0)
			return err
		})
	tr.end(stream, float64(len(grid)), 0)
	if err != nil {
		return out, timing, err
	}
	if err := enc.Encode(wire.SweepEnvelope{Done: &wire.SweepDone{Rows: len(grid)}}); err != nil {
		return out, timing, err
	}
	out.sweep = buf.Bytes()
	return out, timing, nil
}

// experimentDoc is the body of GET /v2/experiments/{name}.
type experimentDoc struct {
	Name   string `json:"name"`
	Tables []struct {
		Title   string     `json:"title"`
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	} `json:"tables"`
}

// checkExperiment decodes an experiment response and compares it field
// by field with the registry's tables.
func checkExperiment(name string, body []byte, want []*report.Table) error {
	var doc experimentDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("experiment %s: undecodable body: %w", name, err)
	}
	if doc.Name != name {
		return fmt.Errorf("experiment %s: response names %q", name, doc.Name)
	}
	if len(doc.Tables) != len(want) {
		return fmt.Errorf("experiment %s: %d tables, want %d", name, len(doc.Tables), len(want))
	}
	for i, got := range doc.Tables {
		w := want[i]
		if got.Title != w.Title || !slices.Equal(got.Columns, w.Columns) ||
			!slices.EqualFunc(got.Rows, w.Rows, func(a, b []string) bool { return slices.Equal(a, b) }) {
			return fmt.Errorf("experiment %s: table %d (%q) differs from the in-process result", name, i, w.Title)
		}
	}
	return nil
}
