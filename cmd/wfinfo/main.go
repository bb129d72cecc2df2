// Command wfinfo inspects a workflow: given a DAX XML file (or a preset
// name), it prints the structural statistics the paper reports for its
// workloads -- task counts by type, level widths, data volumes, CCR --
// and the concrete-plan summary (stage-in/out and cleanup job counts and
// the bytes they move).  The plan table is counted straight from the
// compiled workflow's file lists, the same lists the executor walks
// when it stages, computes and cleans up in each data-management mode.
//
// Usage:
//
//	wfinfo -preset 2deg
//	daxgen -preset 4deg | wfinfo
//	wfinfo -dax montage-1deg.xml -mode cleanup
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"repro/internal/dag"
	"repro/internal/datamgmt"
	"repro/internal/dax"
	"repro/internal/montage"
	"repro/internal/report"
	"repro/internal/units"
)

func main() {
	preset := flag.String("preset", "", "preset workflow: 1deg, 2deg or 4deg")
	daxPath := flag.String("dax", "", "DAX XML file to inspect (default stdin when no preset)")
	modeStr := flag.String("mode", "cleanup", "planning mode: remote-io, regular or cleanup")
	flag.Parse()

	if err := run(*preset, *daxPath, *modeStr, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "wfinfo: %v\n", err)
		os.Exit(1)
	}
}

func load(preset, daxPath string) (*dag.Workflow, error) {
	switch {
	case preset != "" && daxPath != "":
		return nil, fmt.Errorf("use either -preset or -dax, not both")
	case preset == "1deg":
		return montage.Generate(montage.OneDegree())
	case preset == "2deg":
		return montage.Generate(montage.TwoDegree())
	case preset == "4deg":
		return montage.Generate(montage.FourDegree())
	case preset != "":
		return nil, fmt.Errorf("unknown preset %q (want 1deg, 2deg or 4deg)", preset)
	case daxPath != "":
		f, err := os.Open(daxPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dax.Read(f)
	default:
		return dax.Read(os.Stdin)
	}
}

func run(preset, daxPath, modeStr string, w io.Writer) error {
	wf, err := load(preset, daxPath)
	if err != nil {
		return err
	}
	mode, err := datamgmt.ParseMode(modeStr)
	if err != nil {
		return err
	}

	summary := report.New(fmt.Sprintf("Workflow %s", wf.Name), "quantity", "value")
	summary.MustAdd("tasks", fmt.Sprint(wf.NumTasks()))
	summary.MustAdd("files", fmt.Sprint(wf.NumFiles()))
	summary.MustAdd("levels", fmt.Sprint(wf.MaxLevel()))
	summary.MustAdd("max parallelism", fmt.Sprint(wf.MaxParallelism()))
	summary.MustAdd("total CPU time", wf.TotalRuntime().String())
	summary.MustAdd("critical path", wf.CriticalPath().String())
	summary.MustAdd("total file bytes", wf.TotalFileBytes().String())
	summary.MustAdd("external inputs", fmt.Sprintf("%d (%v)", len(wf.ExternalInputs()), wf.InputBytes()))
	summary.MustAdd("outputs", fmt.Sprintf("%d (%v)", len(wf.OutputFiles()), wf.OutputBytes()))
	summary.MustAdd("CCR @ 10 Mbps", report.F(wf.CCR(units.Mbps(10)), 4))
	if err := summary.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	byType := map[string]int{}
	byTypeCPU := map[string]units.Duration{}
	for _, t := range wf.Tasks() {
		byType[t.Type]++
		byTypeCPU[t.Type] += t.Runtime
	}
	var types []string
	for typ := range byType {
		types = append(types, typ)
	}
	sort.Strings(types)
	typeTable := report.New("Tasks by type", "type", "count", "cpu-time", "cpu-share")
	total := wf.TotalRuntime().Seconds()
	for _, typ := range types {
		typeTable.MustAdd(typ, fmt.Sprint(byType[typ]), byTypeCPU[typ].String(),
			fmt.Sprintf("%.1f%%", 100*byTypeCPU[typ].Seconds()/total))
	}
	if err := typeTable.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	levelTable := report.New("Level structure", "level", "width", "types")
	for lv := 1; lv <= wf.MaxLevel(); lv++ {
		tasks := wf.TasksAtLevel(lv)
		typeSet := map[string]bool{}
		for _, t := range tasks {
			typeSet[t.Type] = true
		}
		var names []string
		for typ := range typeSet {
			names = append(names, typ)
		}
		sort.Strings(names)
		levelTable.MustAdd(fmt.Sprint(lv), fmt.Sprint(len(tasks)), fmt.Sprint(names))
	}
	if err := levelTable.WriteText(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	return planTable(wf, mode).WriteText(w)
}

// planTable summarises the concrete plan of the paper's Fig. 2 for one
// data-management mode.  The resident modes stage every external input
// in and every output out once, and cleanup mode adds one cleanup job
// per file that some task reads and the user does not get back.  Remote
// I/O gives every task its own stage-in of its inputs and stage-out of
// its outputs, and keeps nothing to clean up.
func planTable(wf *dag.Workflow, mode datamgmt.Mode) *report.Table {
	stageIn, bytesIn := len(wf.ExternalInputs()), wf.InputBytes()
	stageOut, bytesOut := len(wf.OutputFiles()), wf.OutputBytes()
	cleanup := 0
	switch mode {
	case datamgmt.RemoteIO:
		stageIn, bytesIn = wf.NumTasks(), 0
		stageOut, bytesOut = wf.NumTasks(), 0
		for _, t := range wf.Tasks() {
			bytesIn += fileBytes(wf, wf.InputIDs(t.ID))
			bytesOut += fileBytes(wf, wf.OutputIDs(t.ID))
		}
	case datamgmt.Cleanup:
		for _, f := range wf.Files() {
			if !f.Output && len(f.Consumers()) > 0 {
				cleanup++
			}
		}
	}
	t := report.New(fmt.Sprintf("Concrete plan (%v mode)", mode), "jobs", "count", "bytes")
	t.MustAdd("stage-in", fmt.Sprint(stageIn), bytesIn.String())
	t.MustAdd("compute", fmt.Sprint(wf.NumTasks()), "-")
	t.MustAdd("cleanup", fmt.Sprint(cleanup), "-")
	t.MustAdd("stage-out", fmt.Sprint(stageOut), bytesOut.String())
	return t
}

// fileBytes sums the sizes of the given files.
func fileBytes(wf *dag.Workflow, ids []dag.FileID) units.Bytes {
	var sum units.Bytes
	for _, id := range ids {
		sum += wf.FileByID(id).Size
	}
	return sum
}
