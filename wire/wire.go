// Package wire is the versioned wire layer of the simulator: the JSON
// request and result documents a service (or a CLI talking to one)
// exchanges with the simulation engine, plus the canonical cache key
// that makes deterministic simulations cacheable.
//
// The request schema is the declarative v2 Scenario: one versioned
// document with nested workflow, fleet, storage, pricing, spot,
// recovery and policies sections.  It resolves to a (spec, plan) pair,
// runs into a RunDocumentV2 that echoes the normalized scenario back,
// and keys the cache through CanonicalRunKeyV2: the JSON encoding of
// the resolved pair, not of the scenario or its echo, so every field
// of the spec and the plan is in the key by construction.
//
// The scenario is also the sweep substrate: SweepRequest declares a
// grid as {axis: <any scenario path>, values: [...]} pairs, so any
// field of the scenario -- a spot revocation rate, a fleet split, a
// checkpoint interval, a pricing rate -- is sweepable without new
// server code (see Axis and Scenario.With).
//
// Every decoder here rejects unknown fields: a misspelled knob costs
// the caller a clear error, never a silently ignored field.
package wire

import (
	"encoding/json"
	"fmt"
	"io"
)

// Version is the current scenario schema version.
const Version = 2

// DecodeStrict decodes one JSON document from r into v, rejecting
// unknown fields (anywhere in the document, nested sections included)
// and trailing data.  Every POST body in the service is decoded through
// this, so a misspelled field is a 400, not a silently applied default.
func DecodeStrict(r io.Reader, v any) error {
	if err := decodeStrict(r, v); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after the JSON document")
	}
	return nil
}

// encode renders v in the canonical wire encoding: two-space-indented
// JSON with a trailing newline.  The server and montagesim both emit
// exactly this, so CLI output can be diffed byte for byte against API
// output.
func encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
