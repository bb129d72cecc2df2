package wire

import (
	"bytes"
	"encoding/json"
	"reflect"
	"sort"
	"testing"
)

// scenarioSeeds are the fuzz corpus both targets start from: every
// golden fixture, then bodies that once crashed or misbehaved.
func scenarioSeeds(f *testing.F) {
	names := make([]string, 0, len(v2Fixtures))
	for name := range v2Fixtures {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		body, err := json.Marshal(v2Fixtures[name])
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		// Sized a spot schedule past makeslice's bound.
		`{"version":2,"workflow":{"name":"montage-1deg"},"fleet":{"processors":16},"spot":{"rate_per_hour":1e12,"downtime_seconds":1e-9}}`,
		// A downtime below the clock's resolution near the horizon.
		`{"version":2,"workflow":{"name":"1deg"},"fleet":{"processors":16},"spot":{"rate_per_hour":1,"downtime_seconds":1e-12}}`,
		// Bytes per second overflowing to +Inf.
		`{"version":2,"workflow":{"name":"1deg"},"storage":{"bandwidth_mbps":1.7e308}}`,
		// A checkpoint size past the int64 range.
		`{"version":2,"workflow":{"name":"1deg"},"recovery":{"checkpoint_seconds":300,"checkpoint_bytes":1e19}}`,
		// A custom mosaic whose size formats to a preset's.
		`{"version":2,"workflow":{"degrees":1}}`,
		// Extremes that once failed inside the run: file sizes past the
		// int64 range, a CCR below the fixed files' share, no CPU time, a
		// clock too coarse for the runtimes, and a cost of +Inf.
		`{"version":2,"workflow":{"name":"1deg","ccr":1e30}}`,
		`{"version":2,"workflow":{"name":"1deg","ccr":1e-300}}`,
		`{"version":2,"workflow":{"degrees":1e-300}}`,
		`{"version":2,"workflow":{"name":"1deg"},"storage":{"bandwidth_mbps":1e-300}}`,
		`{"version":2,"workflow":{"name":"1deg"},"pricing":{"cpu_per_hour":1e308}}`,
	} {
		f.Add([]byte(body))
	}
}

// FuzzScenario drives any body down the /v2/run path -- strict decode,
// Resolve, the cache key, the echo, and the echo's own decode and
// Resolve -- and requires that nothing panics, that a scenario which
// resolves has a key, and that its echo encodes and resolves to the
// identical canonical plan, so any response is re-POSTable.
//
// The echo's spec is not compared: a custom mosaic whose size formats
// to 1, 2 or 4 degrees takes the preset's name, so its echo re-runs
// the preset (CHANGES.md, FOUND: the echo's preset-name defect).
func FuzzScenario(f *testing.F) {
	scenarioSeeds(f)
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Scenario
		if DecodeStrict(bytes.NewReader(body), &s) != nil {
			return
		}
		spec, plan, err := s.Resolve()
		if err != nil {
			return
		}
		if CanonicalRunKeyV2(spec, plan) == "" {
			t.Fatal("a resolved scenario has an empty key")
		}
		echo, err := json.Marshal(EchoScenario(spec, plan))
		if err != nil {
			t.Fatalf("echo does not encode: %v", err)
		}
		var again Scenario
		if err := DecodeStrict(bytes.NewReader(echo), &again); err != nil {
			t.Fatalf("echo %s does not decode: %v", echo, err)
		}
		_, replan, err := again.Resolve()
		if err != nil {
			t.Fatalf("echo %s does not resolve: %v", echo, err)
		}
		if !reflect.DeepEqual(replan, plan) {
			t.Fatalf("echo %s resolves to plan %+v, want %+v", echo, replan, plan)
		}
	})
}

// FuzzScenarioWith substitutes, at every leaf path of a scenario's JSON
// form, the value already there, and requires With to return the same
// scenario: a sweep point differs from its base in the swept field
// alone.
func FuzzScenarioWith(f *testing.F) {
	scenarioSeeds(f)
	for _, seed := range []string{"9007199254740993", "-9223372036854775808", "9223372036854775807"} {
		f.Add([]byte(`{"version":2,"workflow":{"name":"1deg"},"spot":{"seed":` + seed + `}}`))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var s Scenario
		if DecodeStrict(bytes.NewReader(body), &s) != nil {
			return
		}
		raw, err := json.Marshal(s)
		if err != nil {
			t.Fatalf("a decoded scenario does not encode: %v", err)
		}
		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var doc map[string]any
		if err := dec.Decode(&doc); err != nil {
			t.Fatal(err)
		}
		leaves := map[string]any{}
		collectLeaves(doc, "", leaves)
		paths := make([]string, 0, len(leaves))
		for path := range leaves {
			paths = append(paths, path)
		}
		sort.Strings(paths)
		for _, path := range paths {
			got, err := s.With(path, leaves[path])
			if err != nil {
				t.Fatalf("With(%s, %v): %v", path, leaves[path], err)
			}
			if !reflect.DeepEqual(got, s) {
				t.Fatalf("With(%s, %v) on %s changed the scenario", path, leaves[path], raw)
			}
		}
	})
}

// collectLeaves maps the dotted path of every non-object value in doc
// to that value.
func collectLeaves(doc map[string]any, prefix string, out map[string]any) {
	for k, v := range doc {
		if m, ok := v.(map[string]any); ok {
			collectLeaves(m, prefix+k+".", out)
			continue
		}
		out[prefix+k] = v
	}
}
