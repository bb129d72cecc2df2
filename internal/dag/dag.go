// Package dag models a scientific workflow as a directed acyclic graph of
// tasks connected by data dependencies, the representation the paper's
// simulator consumes (an adjacency list parsed from Montage's XML DAG
// description, with file sizes and task runtimes attached).
//
// A Workflow owns two kinds of vertices:
//
//   - Task: one invocation of a routine (e.g. mProject) with a runtime on
//     a reference CPU, a set of input files and a set of output files.
//   - File: a named, sized data item.  A file has at most one producer
//     task; files with no producer are the workflow's external inputs
//     (staged in from the user), and files marked as outputs are staged
//     back out to the user at the end.
//
// Task-to-task edges are implied by files: t1 -> t2 whenever an output of
// t1 is an input of t2.  Levels follow the paper's definition: tasks with
// no data-dependence are level 1, and every other task is one plus the
// maximum level of its parents.
package dag

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/units"
)

// TaskID identifies a task within a workflow.
type TaskID int

// FileID identifies a file within a finalized workflow.  Finalize
// numbers the files densely in name order, so ascending IDs are
// ascending names and an ID indexes the slice Files returns.
type FileID int32

// File is a data item used or produced by the workflow.
type File struct {
	Name     string      // unique within the workflow
	Size     units.Bytes // size in bytes; change it only through ScaleFileSizes once finalized
	Producer TaskID      // task that writes it, or NoTask for external inputs
	Output   bool        // true if the file must be staged out to the user

	id        FileID   // dense name-order index, assigned by Finalize (beside Output, it costs no space)
	consumers []TaskID // tasks that read the file, sorted by ID
}

// NoTask marks a file with no producing task (an external input).
const NoTask TaskID = -1

// Consumers returns the IDs of the tasks that read the file, in ID order.
// The returned slice is owned by the workflow and must not be modified.
func (f *File) Consumers() []TaskID { return f.consumers }

// External reports whether the file comes from outside the workflow and
// must be transferred in from the user before any consumer can run.
func (f *File) External() bool { return f.Producer == NoTask }

// ID returns the file's dense index, its position in name order.  It is
// assigned by Finalize.
func (f *File) ID() FileID { return f.id }

// Task is one vertex of the workflow graph.
type Task struct {
	ID      TaskID
	Name    string         // unique within the workflow
	Type    string         // routine name, e.g. "mProject"
	Runtime units.Duration // runtime on the reference CPU

	Inputs  []string // names of files read
	Outputs []string // names of files written

	parents  []TaskID
	children []TaskID
	level    int
}

// Parents returns the IDs of tasks this task depends on, in ID order.
func (t *Task) Parents() []TaskID { return t.parents }

// Children returns the IDs of tasks that depend on this task, in ID order.
func (t *Task) Children() []TaskID { return t.children }

// Level returns the task's level per the paper's definition (roots are 1).
func (t *Task) Level() int { return t.level }

// Workflow is an immutable-after-Finalize DAG of tasks and files.
//
// Finalize also compiles the workflow into an index-addressed form that
// every simulated run reads instead of re-deriving it: dense FileIDs,
// the name-sorted file list with its external-input and output subsets,
// per-task FileID lists, the widest level and the total file bytes.
type Workflow struct {
	Name      string
	tasks     []*Task
	files     map[string]*File
	taskNames map[string]bool // for AddTask's duplicate check; dropped by Finalize

	finalized bool
	order     []TaskID // topological order, computed by Finalize
	maxLevel  int

	// Compiled by Finalize; see compile.
	sorted    []*File // by name: sorted[id].ID() == id
	external  []*File // External() files, by name
	outputs   []*File // Output files, by name
	maxPar    int
	fileBytes units.Bytes
	// io holds every task's file IDs.  Task t's window io[ioAt[t]:ioAt[t+1]]
	// lists its inputs then its outputs in declaration order, followed,
	// only when that is not name order, by the same two lists in name
	// order.
	io   []FileID
	ioAt []int32
}

// New returns an empty workflow with the given name.
func New(name string) *Workflow {
	return &Workflow{Name: name, files: make(map[string]*File), taskNames: make(map[string]bool)}
}

// AddFile registers a file.  Size must be non-negative and the name
// unique.  Producer links are established by AddTask.
func (w *Workflow) AddFile(name string, size units.Bytes, output bool) (*File, error) {
	if w.finalized {
		return nil, errors.New("dag: workflow already finalized")
	}
	if name == "" {
		return nil, errors.New("dag: empty file name")
	}
	if size < 0 {
		return nil, fmt.Errorf("dag: file %q has negative size %d", name, size)
	}
	if _, dup := w.files[name]; dup {
		return nil, fmt.Errorf("dag: duplicate file %q", name)
	}
	f := &File{Name: name, Size: size, Producer: NoTask, Output: output}
	w.files[name] = f
	return f, nil
}

// AddTask registers a task reading the named input files and writing the
// named output files.  All files must already exist, and each output file
// must not already have a producer.
func (w *Workflow) AddTask(name, typ string, runtime units.Duration, inputs, outputs []string) (*Task, error) {
	if w.finalized {
		return nil, errors.New("dag: workflow already finalized")
	}
	if name == "" {
		return nil, errors.New("dag: empty task name")
	}
	if runtime < 0 {
		return nil, fmt.Errorf("dag: task %q has negative runtime %v", name, runtime)
	}
	if w.taskNames[name] {
		return nil, fmt.Errorf("dag: duplicate task %q", name)
	}
	id := TaskID(len(w.tasks))
	t := &Task{
		ID: id, Name: name, Type: typ, Runtime: runtime,
		Inputs: append([]string(nil), inputs...), Outputs: append([]string(nil), outputs...),
	}
	seen := make(map[string]bool, len(inputs)+len(outputs))
	for _, in := range t.Inputs {
		f, ok := w.files[in]
		if !ok {
			return nil, fmt.Errorf("dag: task %q reads unknown file %q", name, in)
		}
		if seen[in] {
			return nil, fmt.Errorf("dag: task %q lists file %q twice", name, in)
		}
		seen[in] = true
		f.consumers = append(f.consumers, id)
	}
	for _, out := range t.Outputs {
		f, ok := w.files[out]
		if !ok {
			return nil, fmt.Errorf("dag: task %q writes unknown file %q", name, out)
		}
		if seen[out] {
			return nil, fmt.Errorf("dag: task %q lists file %q twice", name, out)
		}
		seen[out] = true
		if f.Producer != NoTask {
			return nil, fmt.Errorf("dag: file %q produced by two tasks", out)
		}
		f.Producer = id
	}
	w.tasks = append(w.tasks, t)
	w.taskNames[name] = true
	return t, nil
}

// Finalize validates the graph, derives task-to-task edges, computes a
// topological order and per-task levels, and freezes the workflow.
func (w *Workflow) Finalize() error {
	if w.finalized {
		return nil
	}
	if len(w.tasks) == 0 {
		return errors.New("dag: workflow has no tasks")
	}
	// Derive parent/child edges from file producer/consumer relations.
	// The parent lists are windows of one array, and the child lists of
	// another, so the edges cost two allocations whatever the fan-in.
	nIn := 0
	for _, t := range w.tasks {
		nIn += len(t.Inputs)
	}
	parents := make([]TaskID, 0, nIn)
	nChildren := make([]int, len(w.tasks))
	for _, t := range w.tasks {
		start := len(parents)
		for _, in := range t.Inputs {
			if p := w.files[in].Producer; p != NoTask && p != t.ID {
				parents = append(parents, p)
			}
		}
		slices.Sort(parents[start:])
		parents = parents[:start+len(slices.Compact(parents[start:]))]
		t.parents = nil
		if end := len(parents); end > start {
			t.parents = parents[start:end:end]
		}
		for _, p := range t.parents {
			nChildren[p]++
		}
	}
	children := make([]TaskID, len(parents))
	for _, t := range w.tasks {
		n := nChildren[t.ID]
		t.children = nil
		if n > 0 {
			t.children, children = children[:0:n], children[n:]
		}
	}
	// Appending in task-ID order leaves every child list sorted.
	for _, t := range w.tasks {
		for _, p := range t.parents {
			w.tasks[p].children = append(w.tasks[p].children, t.ID)
		}
	}

	// Kahn's algorithm for a deterministic topological order (smallest ID
	// first among ready tasks) and cycle detection.
	indeg := make([]int, len(w.tasks))
	for _, t := range w.tasks {
		indeg[t.ID] = len(t.parents)
	}
	ready := &idHeap{}
	for _, t := range w.tasks {
		if indeg[t.ID] == 0 {
			ready.push(t.ID)
		}
	}
	w.order = w.order[:0]
	for ready.len() > 0 {
		id := ready.pop()
		w.order = append(w.order, id)
		for _, c := range w.tasks[id].children {
			indeg[c]--
			if indeg[c] == 0 {
				ready.push(c)
			}
		}
	}
	if len(w.order) != len(w.tasks) {
		return errors.New("dag: workflow contains a cycle")
	}

	// Levels per the paper: roots are level 1; otherwise 1 + max parent.
	w.maxLevel = 0
	for _, id := range w.order {
		t := w.tasks[id]
		t.level = 1
		for _, p := range t.parents {
			if lv := w.tasks[p].level + 1; lv > t.level {
				t.level = lv
			}
		}
		if t.level > w.maxLevel {
			w.maxLevel = t.level
		}
	}

	// Every non-external file must be consumed or be a declared output;
	// dangling files are almost always a generator bug.  Collect and
	// sort before reporting so the error names the same file on every
	// run regardless of map iteration order.
	var dangling []string
	for _, f := range w.files {
		if !f.External() && len(f.consumers) == 0 && !f.Output {
			dangling = append(dangling, f.Name)
		}
	}
	sort.Strings(dangling)
	if len(dangling) > 0 {
		return fmt.Errorf("dag: file %q is produced but never consumed nor staged out", dangling[0])
	}
	w.compile()
	w.finalized = true
	// Nothing can be added any more, and the compiled sorted list answers
	// name lookups: drop the build-time maps, which every cached workflow
	// would otherwise carry.
	w.files, w.taskNames = nil, nil
	return nil
}

// compile builds the index-addressed form of a validated workflow: dense
// name-order FileIDs, the sorted file lists, each task's file lists as
// IDs and the cached aggregates.  It reads only the tasks and files, so
// Clone re-runs it to point the copy's lists at the copy's files.
func (w *Workflow) compile() {
	w.sorted = sortedFiles(w.files)
	for i, f := range w.sorted {
		f.id = FileID(i)
	}
	w.external = filterFiles(w.sorted, (*File).External)
	w.outputs = filterFiles(w.sorted, isOutput)
	w.fileBytes = sumSizes(w.sorted)
	w.maxPar = w.widestLevel()
	n := 0
	for _, t := range w.tasks {
		n += len(t.Inputs) + len(t.Outputs)
	}
	w.io = make([]FileID, 0, n)
	w.ioAt = make([]int32, len(w.tasks)+1)
	for i, t := range w.tasks {
		start := len(w.io)
		for _, name := range t.Inputs {
			w.io = append(w.io, w.files[name].id)
		}
		for _, name := range t.Outputs {
			w.io = append(w.io, w.files[name].id)
		}
		decl, nIn := w.io[start:], len(t.Inputs)
		if !slices.IsSorted(decl[:nIn]) || !slices.IsSorted(decl[nIn:]) {
			w.io = append(w.io, decl...)
			byName := w.io[len(w.io)-len(decl):]
			slices.Sort(byName[:nIn])
			slices.Sort(byName[nIn:])
		}
		w.ioAt[i+1] = int32(len(w.io))
	}
}

// ioWindow returns a task's window of io, the length of its declared
// lists and the number of its inputs.
func (w *Workflow) ioWindow(id TaskID) (win []FileID, n, nIn int) {
	t := w.tasks[id]
	return w.io[w.ioAt[id]:w.ioAt[id+1]], len(t.Inputs) + len(t.Outputs), len(t.Inputs)
}

// InputIDs returns the IDs of the files task id reads, in name order.
// It and the three accessors below are built by Finalize and return
// windows of the workflow's own compiled array: callers must not modify
// the slices.
func (w *Workflow) InputIDs(id TaskID) []FileID {
	win, n, nIn := w.ioWindow(id)
	if len(win) > n {
		win = win[n:]
	}
	return win[:nIn:nIn]
}

// OutputIDs returns the IDs of the files task id writes, in name order.
func (w *Workflow) OutputIDs(id TaskID) []FileID {
	win, n, nIn := w.ioWindow(id)
	if len(win) > n {
		win = win[n:]
	}
	return win[nIn:n:n]
}

// DeclaredInputIDs returns the IDs of task id's Inputs, index for index.
func (w *Workflow) DeclaredInputIDs(id TaskID) []FileID {
	win, _, nIn := w.ioWindow(id)
	return win[:nIn:nIn]
}

// DeclaredOutputIDs returns the IDs of task id's Outputs, index for
// index.
func (w *Workflow) DeclaredOutputIDs(id TaskID) []FileID {
	win, n, nIn := w.ioWindow(id)
	return win[nIn:n:n]
}

func sortedFiles(files map[string]*File) []*File {
	out := make([]*File, 0, len(files))
	for _, f := range files {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b *File) int { return strings.Compare(a.Name, b.Name) })
	return out
}

func filterFiles(files []*File, keep func(*File) bool) []*File {
	var out []*File
	for _, f := range files {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}

func isOutput(f *File) bool { return f.Output }

func sumSizes(files []*File) units.Bytes {
	var sum units.Bytes
	for _, f := range files {
		sum += f.Size
	}
	return sum
}

// Finalized reports whether Finalize has completed successfully.
func (w *Workflow) Finalized() bool { return w.finalized }

// NumTasks returns the number of tasks.
func (w *Workflow) NumTasks() int { return len(w.tasks) }

// NumFiles returns the number of files.
func (w *Workflow) NumFiles() int {
	if w.finalized {
		return len(w.sorted)
	}
	return len(w.files)
}

// Task returns the task with the given ID.
func (w *Workflow) Task(id TaskID) *Task { return w.tasks[id] }

// Tasks returns all tasks in ID order. The slice is owned by the workflow.
func (w *Workflow) Tasks() []*Task { return w.tasks }

// File returns the named file, or nil if it does not exist.  A finalized
// workflow finds it by binary search over its name-sorted files.
func (w *Workflow) File(name string) *File {
	if !w.finalized {
		return w.files[name]
	}
	i, ok := slices.BinarySearchFunc(w.sorted, name, func(f *File, name string) int { return strings.Compare(f.Name, name) })
	if !ok {
		return nil
	}
	return w.sorted[i]
}

// FileByID returns the file with the given ID.  Finalize must have been
// called.
func (w *Workflow) FileByID(id FileID) *File { return w.sorted[id] }

// Files returns all files sorted by name, which on a finalized workflow
// is FileID order.  Once the workflow is finalized the slice is the
// workflow's own and is shared by every caller: it must not be modified
// (copy it first to reorder it).
func (w *Workflow) Files() []*File {
	if w.finalized {
		return w.sorted
	}
	return sortedFiles(w.files)
}

// TopoOrder returns a deterministic topological order of task IDs.
// Finalize must have been called.
func (w *Workflow) TopoOrder() []TaskID { return w.order }

// MaxLevel returns the number of levels in the workflow.
func (w *Workflow) MaxLevel() int { return w.maxLevel }

// TasksAtLevel returns the tasks at the given level, in ID order.
func (w *Workflow) TasksAtLevel(level int) []*Task {
	var out []*Task
	for _, t := range w.tasks {
		if t.level == level {
			out = append(out, t)
		}
	}
	return out
}

// ExternalInputs returns the files that must be staged in from the user,
// sorted by name.  Like Files, the slice of a finalized workflow is the
// workflow's own and must not be modified.
func (w *Workflow) ExternalInputs() []*File {
	if w.finalized {
		return w.external
	}
	return filterFiles(w.Files(), (*File).External)
}

// OutputFiles returns the files staged back to the user, sorted by name.
// Like Files, the slice of a finalized workflow is the workflow's own
// and must not be modified.
func (w *Workflow) OutputFiles() []*File {
	if w.finalized {
		return w.outputs
	}
	return filterFiles(w.Files(), isOutput)
}

// TotalRuntime returns the sum of all task runtimes: the total CPU time
// consumed on the reference CPU (the paper's CPU-hours follow from this).
func (w *Workflow) TotalRuntime() units.Duration {
	var sum units.Duration
	for _, t := range w.tasks {
		sum += t.Runtime
	}
	return sum
}

// TotalFileBytes returns the sum of the sizes of every file used or
// produced by the workflow: the numerator of the paper's CCR formula.
func (w *Workflow) TotalFileBytes() units.Bytes {
	if w.finalized {
		return w.fileBytes
	}
	return sumSizes(w.Files())
}

// InputBytes returns the total size of external input files.
func (w *Workflow) InputBytes() units.Bytes { return sumSizes(w.ExternalInputs()) }

// OutputBytes returns the total size of files staged out to the user.
func (w *Workflow) OutputBytes() units.Bytes { return sumSizes(w.OutputFiles()) }

// MaxParallelism returns the width of the widest level: an upper bound on
// the number of processors the workflow can use at once when tasks within
// a level are independent (true for Montage).
func (w *Workflow) MaxParallelism() int {
	if w.finalized {
		return w.maxPar
	}
	return w.widestLevel()
}

func (w *Workflow) widestLevel() int {
	counts := make([]int, w.maxLevel+1)
	max := 0
	for _, t := range w.tasks {
		counts[t.level]++
		if counts[t.level] > max {
			max = counts[t.level]
		}
	}
	return max
}

// CriticalPath returns the length of the longest runtime-weighted path
// through the DAG: a lower bound on makespan with unlimited processors
// (data transfer excluded).
func (w *Workflow) CriticalPath() units.Duration {
	finish := make([]units.Duration, len(w.tasks))
	var best units.Duration
	for _, id := range w.order {
		t := w.tasks[id]
		var start units.Duration
		for _, p := range t.parents {
			if finish[p] > start {
				start = finish[p]
			}
		}
		finish[id] = start + t.Runtime
		if finish[id] > best {
			best = finish[id]
		}
	}
	return best
}

// UpwardRanks returns each task's runtime-weighted bottom level: its own
// runtime plus the longest runtime path through its descendants.  Tasks
// with the largest rank head the critical path; a mixed-fleet scheduler
// uses the ranks to place critical-path work on reliable capacity.
func (w *Workflow) UpwardRanks() []units.Duration {
	rank := make([]units.Duration, len(w.tasks))
	for i := len(w.order) - 1; i >= 0; i-- {
		t := w.tasks[w.order[i]]
		var below units.Duration
		for _, c := range t.children {
			if rank[c] > below {
				below = rank[c]
			}
		}
		rank[t.ID] = t.Runtime + below
	}
	return rank
}

// ScaleFileSizes multiplies every file size by factor, the operation the
// paper uses to sweep the communication-to-computation ratio ("we multiply
// each file size by CCRd/CCRr").  It may only be called before Finalize
// or on a finalized workflow via Clone-and-scale in package montage.
func (w *Workflow) ScaleFileSizes(factor float64) error {
	if factor <= 0 {
		return fmt.Errorf("dag: non-positive scale factor %v", factor)
	}
	for _, f := range w.Files() {
		f.Size = units.BytesOf(float64(f.Size) * factor)
	}
	if w.finalized {
		w.fileBytes = sumSizes(w.sorted)
	}
	return nil
}

// Clone returns a deep copy of the workflow.  The copy preserves
// finalization state, orders and levels, and has its own compiled form.
func (w *Workflow) Clone() *Workflow {
	c := New(w.Name)
	for _, f := range w.Files() {
		nf := *f
		nf.consumers = append([]TaskID(nil), f.consumers...)
		c.files[f.Name] = &nf
	}
	c.tasks = make([]*Task, len(w.tasks))
	for i, t := range w.tasks {
		nt := *t
		nt.Inputs = append([]string(nil), t.Inputs...)
		nt.Outputs = append([]string(nil), t.Outputs...)
		nt.parents = append([]TaskID(nil), t.parents...)
		nt.children = append([]TaskID(nil), t.children...)
		c.tasks[i] = &nt
	}
	c.finalized = w.finalized
	c.order = append([]TaskID(nil), w.order...)
	c.maxLevel = w.maxLevel
	if c.finalized {
		c.compile()
		c.files, c.taskNames = nil, nil
	} else {
		for _, t := range c.tasks {
			c.taskNames[t.Name] = true
		}
	}
	return c
}

// idHeap is a tiny min-heap of TaskIDs used for deterministic Kahn order.
type idHeap struct{ ids []TaskID }

func (h *idHeap) len() int { return len(h.ids) }

func (h *idHeap) push(id TaskID) {
	h.ids = append(h.ids, id)
	i := len(h.ids) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h.ids[p] <= h.ids[i] {
			break
		}
		h.ids[p], h.ids[i] = h.ids[i], h.ids[p]
		i = p
	}
}

func (h *idHeap) pop() TaskID {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h.ids) && h.ids[l] < h.ids[small] {
			small = l
		}
		if r < len(h.ids) && h.ids[r] < h.ids[small] {
			small = r
		}
		if small == i {
			break
		}
		h.ids[i], h.ids[small] = h.ids[small], h.ids[i]
		i = small
	}
	return top
}
