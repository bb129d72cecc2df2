// Package dax reads and writes workflows in an XML format modeled on the
// DAX ("DAG in XML") description that Montage's mDAG component emits and
// that the paper's authors parsed into an adjacency list for their
// simulator.  The format captures exactly what the simulator needs: task
// names and types, runtimes from real (here: synthetic) runs, file names
// and sizes, and input/output linkage.
//
// Example document:
//
//	<adag name="montage-1deg">
//	  <file name="2mass-001.fits" size="6000000"/>
//	  <file name="mosaic.fits" size="173460000" output="true"/>
//	  <job id="ID0000" name="mProject-0" type="mProject" runtime="271.3">
//	    <uses file="2mass-001.fits" link="input"/>
//	    <uses file="proj-0.fits" link="output"/>
//	  </job>
//	</adag>
package dax

import (
	"encoding/xml"
	"fmt"
	"io"

	"repro/internal/dag"
	"repro/internal/units"
)

// xmlADAG is the top-level document element.
type xmlADAG struct {
	XMLName xml.Name  `xml:"adag"`
	Name    string    `xml:"name,attr"`
	Files   []xmlFile `xml:"file"`
	Jobs    []xmlJob  `xml:"job"`
}

type xmlFile struct {
	Name   string `xml:"name,attr"`
	Size   int64  `xml:"size,attr"`
	Output bool   `xml:"output,attr,omitempty"`
}

type xmlJob struct {
	ID      string    `xml:"id,attr"`
	Name    string    `xml:"name,attr"`
	Type    string    `xml:"type,attr"`
	Runtime float64   `xml:"runtime,attr"`
	Uses    []xmlUses `xml:"uses"`
}

type xmlUses struct {
	File string `xml:"file,attr"`
	Link string `xml:"link,attr"` // "input" or "output"
}

// Write serializes the workflow as a DAX XML document.  Files are
// emitted sorted by name and jobs in task-ID order, so output is
// deterministic and round-trip stable.
func Write(w io.Writer, wf *dag.Workflow) error {
	doc := xmlADAG{Name: wf.Name}
	for _, f := range wf.Files() {
		doc.Files = append(doc.Files, xmlFile{Name: f.Name, Size: int64(f.Size), Output: f.Output})
	}
	for _, t := range wf.Tasks() {
		j := xmlJob{
			ID:      fmt.Sprintf("ID%05d", t.ID),
			Name:    t.Name,
			Type:    t.Type,
			Runtime: t.Runtime.Seconds(),
		}
		for _, in := range t.Inputs {
			j.Uses = append(j.Uses, xmlUses{File: in, Link: "input"})
		}
		for _, out := range t.Outputs {
			j.Uses = append(j.Uses, xmlUses{File: out, Link: "output"})
		}
		doc.Jobs = append(doc.Jobs, j)
	}
	if _, err := io.WriteString(w, xml.Header); err != nil {
		return err
	}
	enc := xml.NewEncoder(w)
	enc.Indent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("dax: encode: %w", err)
	}
	_, err := io.WriteString(w, "\n")
	return err
}

// Read parses a DAX XML document into a finalized Workflow.
func Read(r io.Reader) (*dag.Workflow, error) {
	var doc xmlADAG
	if err := xml.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("dax: decode: %w", err)
	}
	if doc.Name == "" {
		return nil, fmt.Errorf("dax: adag element missing name attribute")
	}
	wf := dag.New(doc.Name)
	for _, f := range doc.Files {
		if _, err := wf.AddFile(f.Name, units.Bytes(f.Size), f.Output); err != nil {
			return nil, fmt.Errorf("dax: file %q: %w", f.Name, err)
		}
	}
	for _, j := range doc.Jobs {
		var inputs, outputs []string
		for _, u := range j.Uses {
			switch u.Link {
			case "input":
				inputs = append(inputs, u.File)
			case "output":
				outputs = append(outputs, u.File)
			default:
				return nil, fmt.Errorf("dax: job %q uses %q with unknown link %q", j.Name, u.File, u.Link)
			}
		}
		if _, err := wf.AddTask(j.Name, j.Type, units.Duration(j.Runtime), inputs, outputs); err != nil {
			return nil, fmt.Errorf("dax: job %q: %w", j.Name, err)
		}
	}
	if err := wf.Finalize(); err != nil {
		return nil, fmt.Errorf("dax: %w", err)
	}
	return wf, nil
}
