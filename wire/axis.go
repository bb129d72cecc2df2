package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/montage"
)

// Axis is one sweep dimension: a dotted path into the scenario document
// and the values to substitute there.  Any scenario path works --
// "fleet.processors", "spot.rate_per_hour", "recovery.checkpoint_seconds",
// "storage.mode", "pricing.cpu_per_hour", "workflow.ccr" -- because the
// substitution operates on the JSON document itself; a new scenario
// field is sweepable the day it is added, with no sweep-engine change.
//
// Values decoded from a request are float64, as encoding/json decodes
// any number into an interface, so an integer axis value past 2^53 is
// rounded.  Every other field of the base scenario is substituted
// around exactly (see Scenario.With).
type Axis struct {
	Path   string `json:"axis"`
	Values []any  `json:"values"`
}

// SweepRequest is the v2 wire form of a grid request: a base scenario
// plus the axes to sweep.  The grid is the cross product of the axes in
// declaration order, first axis outermost; each point is the base
// scenario with that point's values substituted.
type SweepRequest struct {
	Scenario Scenario `json:"scenario"`
	Axes     []Axis   `json:"axes"`
}

// MaxGridPoints bounds a sweep grid: the cross product multiplies
// quickly, and an unbounded grid would let one cheap POST schedule
// millions of simulations.
const MaxGridPoints = 4096

// GridPoint is one materialized grid point: the concrete scenario plus
// the axis values that produced it (aligned with the request's axes).
type GridPoint struct {
	Scenario Scenario
	Values   []any
}

// Grid expands the request into its grid points, validating every axis
// path and value against the scenario schema.  The returned scenarios
// are fully independent documents; resolving each one validates the
// combination the same way a direct POST would.
func (r SweepRequest) Grid() ([]GridPoint, error) {
	if len(r.Axes) == 0 {
		return nil, fmt.Errorf("wire: sweep declares no axes")
	}
	total := 1
	for _, ax := range r.Axes {
		if strings.TrimSpace(ax.Path) == "" {
			return nil, fmt.Errorf("wire: sweep axis with an empty path")
		}
		if len(ax.Values) == 0 {
			return nil, fmt.Errorf("wire: axis %q has no values", ax.Path)
		}
		if total > MaxGridPoints/len(ax.Values) {
			return nil, fmt.Errorf("wire: sweep grid exceeds %d points", MaxGridPoints)
		}
		total *= len(ax.Values)
	}
	points := []GridPoint{{Scenario: r.Scenario}}
	for _, ax := range r.Axes {
		next := make([]GridPoint, 0, len(points)*len(ax.Values))
		for _, p := range points {
			for _, v := range ax.Values {
				s, err := p.Scenario.With(ax.Path, v)
				if err != nil {
					return nil, err
				}
				values := make([]any, 0, len(p.Values)+1)
				values = append(values, p.Values...)
				values = append(values, v)
				next = append(next, GridPoint{Scenario: s, Values: values})
			}
		}
		points = next
	}
	return points, nil
}

// ResolvedPoint is one grid point resolved to a runnable (spec, plan)
// pair, alongside the materialized scenario and the axis values that
// produced it.
type ResolvedPoint struct {
	Scenario Scenario
	Values   []any
	Spec     montage.Spec
	Plan     core.Plan
}

// ResolveGrid expands the request and resolves every point up front:
// the one grid pipeline the server, the CLI and the experiment registry
// all share, so a malformed combination fails with the offending grid
// index before any simulation runs.
func (r SweepRequest) ResolveGrid() ([]ResolvedPoint, error) {
	points, err := r.Grid()
	if err != nil {
		return nil, err
	}
	out := make([]ResolvedPoint, len(points))
	for i, p := range points {
		spec, plan, err := p.Scenario.Resolve()
		if err != nil {
			return nil, fmt.Errorf("wire: grid point %d: %w", i, err)
		}
		out[i] = ResolvedPoint{Scenario: p.Scenario, Values: p.Values, Spec: spec, Plan: plan}
	}
	return out, nil
}

// With returns a copy of the scenario with the field at the dotted path
// set to value.  The substitution operates on the scenario's JSON form
// and re-decodes strictly, so an unknown path or a type-mismatched
// value fails with a clear error instead of being silently dropped --
// the property that makes every scenario field a valid sweep axis.
// Intermediate sections absent from the base scenario are created.
// Every field but the substituted one keeps its exact value.
func (s Scenario) With(path string, value any) (Scenario, error) {
	segs := strings.Split(path, ".")
	for _, seg := range segs {
		if strings.TrimSpace(seg) == "" {
			return Scenario{}, fmt.Errorf("wire: malformed scenario path %q", path)
		}
	}
	raw, err := json.Marshal(s)
	if err != nil {
		return Scenario{}, err
	}
	// Numbers stay json.Number, not float64, so an integer past 2^53
	// (a spot seed) survives the round trip exactly.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return Scenario{}, err
	}
	cur := doc
	for _, seg := range segs[:len(segs)-1] {
		child, ok := cur[seg]
		if !ok || child == nil {
			m := map[string]any{}
			cur[seg] = m
			cur = m
			continue
		}
		m, ok := child.(map[string]any)
		if !ok {
			return Scenario{}, fmt.Errorf("wire: scenario path %q descends into non-object field %q", path, seg)
		}
		cur = m
	}
	cur[segs[len(segs)-1]] = value
	out, err := json.Marshal(doc)
	if err != nil {
		return Scenario{}, err
	}
	var result Scenario
	if err := decodeStrict(bytes.NewReader(out), &result); err != nil {
		return Scenario{}, fmt.Errorf("wire: axis %q with value %v: %w", path, value, err)
	}
	return result, nil
}
