package exec

import (
	"math"
	"testing"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/units"
)

// unsorted builds a two-task chain whose tasks declare their files out
// of name order, at tinyBW (10 B/s):
//
//	a (10 B), b (20 B) external -> A (4 s) -> z (5 B), y (7 B) -> B (2 s) -> out (3 B, output)
//
// A declares inputs [b a] and outputs [z y]; B declares inputs [z y].
func unsorted(t *testing.T) *dag.Workflow {
	t.Helper()
	w := dag.New("unsorted")
	for _, f := range []struct {
		name   string
		size   units.Bytes
		output bool
	}{{"a", 10, false}, {"b", 20, false}, {"y", 7, false}, {"z", 5, false}, {"out", 3, true}} {
		if _, err := w.AddFile(f.name, f.size, f.output); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.AddTask("A", "r", 4, []string{"b", "a"}, []string{"z", "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.AddTask("B", "r", 2, []string{"z", "y"}, []string{"out"}); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestStorageFollowsDeclarationOrder pins the order of the storage
// operations that share an instant, as the usage curve records them:
// transfers run in name order, but a completed task stores its outputs,
// and cleanup deletes its dead inputs, in the order the task declared
// them.
func TestStorageFollowsDeclarationOrder(t *testing.T) {
	cases := []struct {
		mode datamgmt.Mode
		want [][2]float64 // {time, bytes} of each curve point
	}{
		{datamgmt.Cleanup, [][2]float64{
			{0, 0}, {1, 10}, {3, 30}, // a then b staged in, name order
			{7, 35}, {7, 42}, // A stores z then y
			{7, 22}, {7, 12}, // A's dead inputs: b then a
			{9, 15},         // B stores out
			{9, 10}, {9, 3}, // B's dead inputs: z then y
			{9.3, 0}, // out staged out, everything deleted
		}},
		{datamgmt.RemoteIO, [][2]float64{
			{0, 0}, {1, 10}, {3, 30}, // A fetches a then b, name order
			{7, 35}, {7, 42}, // A stores z then y
			{8.2, 22}, {8.2, 12}, {8.2, 7}, {8.2, 0}, // A deletes b, a, z, y
			{8.9, 7}, {9.4, 12}, // B fetches y then z
			{11.4, 15},                       // B stores out
			{11.7, 10}, {11.7, 3}, {11.7, 0}, // B deletes z, y, out
		}},
	}
	for _, tc := range cases {
		t.Run(tc.mode.String(), func(t *testing.T) {
			m, err := Run(unsorted(t), Config{Mode: tc.mode, Processors: 1, Bandwidth: tinyBW, RecordCurve: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(m.Curve) != len(tc.want) {
				t.Fatalf("curve %v, want %v", m.Curve, tc.want)
			}
			for i, p := range m.Curve {
				if float64(p.Bytes) != tc.want[i][1] || math.Abs(p.Time.Seconds()-tc.want[i][0]) > 1e-9 {
					t.Fatalf("curve point %d = %v, want %v\ncurve %v", i, p, tc.want[i], m.Curve)
				}
			}
		})
	}
}
