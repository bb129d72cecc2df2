package dag

import "repro/internal/units"

// HEFTRanks returns communication-inclusive upward ranks, the priority
// of the HEFT list scheduler (Topcuoglu et al.): each task's runtime
// plus the longest descendant chain where every dependency edge also
// pays the transfer time of the data it carries at the given bandwidth.
// Compute-heavy and data-heavy critical paths both surface, unlike the
// runtime-only UpwardRanks; a non-positive bandwidth falls back to the
// paper's 10 Mbps reference link.
//
// The edge weight t->c is the total size of the files t produces that c
// consumes, divided by the bandwidth -- the data that must exist before
// c can start, priced at the link that would move it.
func (w *Workflow) HEFTRanks(bw units.Bandwidth) []units.Duration {
	if bw <= 0 {
		bw = units.Mbps(10)
	}
	bps := bw.BytesPerSecond()
	rank := make([]units.Duration, len(w.tasks))
	for i := len(w.order) - 1; i >= 0; i-- {
		t := w.tasks[w.order[i]]
		edge := make(map[TaskID]units.Bytes, len(t.children))
		for _, out := range w.DeclaredOutputIDs(t.ID) {
			f := w.sorted[out]
			for _, c := range f.consumers {
				edge[c] += f.Size
			}
		}
		var below units.Duration
		for _, c := range t.children {
			v := rank[c] + units.Duration(float64(edge[c])/bps)
			if v > below {
				below = v
			}
		}
		rank[t.ID] = t.Runtime + below
	}
	return rank
}
