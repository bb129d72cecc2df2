// Package datamgmt implements the paper's three data-management models
// (§3) and the workflow-level data-use analysis behind dynamic cleanup:
//
//   - Remote I/O: each task stages its inputs in from the user, runs,
//     stages every output back out, and deletes everything; nothing is
//     kept at the resource between tasks.
//   - Regular: inputs are brought in at the start, every file stays on
//     the shared storage until the whole workflow finishes, then the net
//     outputs are staged out and everything is deleted.
//   - Cleanup (dynamic cleanup): like Regular, but a file is deleted as
//     soon as no later task needs it, which Pegasus derives "by
//     performing an analysis of data use at the workflow level".  The
//     Analyzer here is that analysis: a reference count per file that
//     drops as consumers finish.
package datamgmt

import (
	"fmt"

	"repro/internal/dag"
)

// Mode selects one of the paper's three execution models.
type Mode int

const (
	// RemoteIO is the paper's "Remote I/O (on-demand)" model.
	RemoteIO Mode = iota
	// Regular keeps all files until the workflow completes.
	Regular
	// Cleanup deletes files as soon as their last consumer finishes.
	Cleanup
)

// Modes lists all execution models in presentation order (the order the
// paper's Figs. 7-9 use).
func Modes() []Mode { return []Mode{RemoteIO, Regular, Cleanup} }

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case RemoteIO:
		return "remote-io"
	case Regular:
		return "regular"
	case Cleanup:
		return "cleanup"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// MarshalText encodes the mode as its command-line name, so metrics and
// plans serialize readably (JSON, logs).
func (m Mode) MarshalText() ([]byte, error) {
	switch m {
	case RemoteIO, Regular, Cleanup:
		return []byte(m.String()), nil
	default:
		return nil, fmt.Errorf("datamgmt: cannot marshal unknown mode %d", int(m))
	}
}

// UnmarshalText decodes a mode name.
func (m *Mode) UnmarshalText(text []byte) error {
	parsed, err := ParseMode(string(text))
	if err != nil {
		return err
	}
	*m = parsed
	return nil
}

// ParseMode parses the textual form accepted on command lines.
func ParseMode(s string) (Mode, error) {
	switch s {
	case "remote-io", "remoteio", "remote":
		return RemoteIO, nil
	case "regular":
		return Regular, nil
	case "cleanup", "dynamic-cleanup":
		return Cleanup, nil
	default:
		return 0, fmt.Errorf("datamgmt: unknown mode %q (want remote-io, regular or cleanup)", s)
	}
}

// Analyzer tracks, per file, how many consumer tasks have not yet
// completed.  It answers the dynamic-cleanup question: "which files died
// when this task finished?"  Counts are indexed by FileID, so the
// question is answered without hashing a name or allocating.
type Analyzer struct {
	wf        *dag.Workflow
	remaining []int32 // by FileID
}

// NewAnalyzer builds the reference counts for a finalized workflow.
func NewAnalyzer(wf *dag.Workflow) (*Analyzer, error) {
	if !wf.Finalized() {
		return nil, fmt.Errorf("datamgmt: workflow %q not finalized", wf.Name)
	}
	a := &Analyzer{wf: wf, remaining: make([]int32, wf.NumFiles())}
	for _, f := range wf.Files() {
		a.remaining[f.ID()] = int32(len(f.Consumers()))
	}
	return a, nil
}

// TaskDone records the completion of a task and appends to dead the
// files that are now dead, in the task's input declaration order: every
// input whose last consumer was this task and which is not a staged-out
// output.  Produced-but-output files are never reported dead; they are
// removed after stage-out.  Passing a reused dead[:0] keeps the call
// allocation-free.
//
// Calling TaskDone twice for the same task corrupts the counts; the
// executor calls it exactly once per task.
func (a *Analyzer) TaskDone(id dag.TaskID, dead []dag.FileID) []dag.FileID {
	for _, in := range a.wf.DeclaredInputIDs(id) {
		a.remaining[in]--
		if a.remaining[in] < 0 {
			panic(fmt.Sprintf("datamgmt: file %q reference count went negative", a.wf.FileByID(in).Name))
		}
		if a.remaining[in] == 0 && !a.wf.FileByID(in).Output {
			dead = append(dead, in)
		}
	}
	return dead
}

// Remaining returns the current reference count for a file.
func (a *Analyzer) Remaining(id dag.FileID) int { return int(a.remaining[id]) }

// DeletionSchedule computes, statically, the cleanup point of every
// deletable file: the task whose completion kills it, assuming tasks
// complete in the given order (for Montage's level-structured DAGs any
// topological order gives the same schedule up to ties).  Output files
// and files with no consumers map to no task and are excluded.
//
// This mirrors the workflow-level analysis of Pegasus' cleanup pass and
// is used by tests and the ablation benchmarks; the executor uses the
// dynamic Analyzer instead.
func DeletionSchedule(wf *dag.Workflow, completionOrder []dag.TaskID) (map[string]dag.TaskID, error) {
	if !wf.Finalized() {
		return nil, fmt.Errorf("datamgmt: workflow %q not finalized", wf.Name)
	}
	pos := make(map[dag.TaskID]int, len(completionOrder))
	for i, id := range completionOrder {
		if _, dup := pos[id]; dup {
			return nil, fmt.Errorf("datamgmt: task %d appears twice in completion order", id)
		}
		pos[id] = i
	}
	if len(pos) != wf.NumTasks() {
		return nil, fmt.Errorf("datamgmt: completion order covers %d of %d tasks", len(pos), wf.NumTasks())
	}
	sched := make(map[string]dag.TaskID)
	for _, f := range wf.Files() {
		if f.Output || len(f.Consumers()) == 0 {
			continue
		}
		last := f.Consumers()[0]
		for _, c := range f.Consumers()[1:] {
			if pos[c] > pos[last] {
				last = c
			}
		}
		sched[f.Name] = last
	}
	return sched, nil
}
