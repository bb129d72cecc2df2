package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function.  All spans of one op share its trace id;
// a root span has parent -1.
type span struct {
	name   string
	label  string // e.g. the experiment name of experiments.run
	trace  int
	parent int
	start  time.Duration // since the tracer's epoch
	end    time.Duration
	size   float64 // bytes encoded, tasks generated or run
	work   float64 // simulated task attempts (core.run)
}

// tracer keeps spans in memory until the run ends.  A nil *tracer is
// valid and records nothing, so untraced replays share the code.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) begin(trace, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, trace: trace, parent: parent, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes span id, recording its sizes.
func (t *tracer) end(id int, size, work float64) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].end, t.spans[id].size, t.spans[id].work = now, size, work
}

func (t *tracer) setLabel(id int, label string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].label = label
}

// selfTimes returns each span's duration minus the part of it its
// children cover (children may overlap each other, as sweep points do).
func selfTimes(spans []span) []time.Duration {
	children := map[int][][2]time.Duration{}
	for _, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		covered := time.Duration(0)
		iv := children[i]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		cur := [2]time.Duration{-1, -1}
		for _, c := range iv {
			c[0], c[1] = max(c[0], s.start), min(c[1], s.end)
			if c[1] <= c[0] {
				continue
			}
			if c[0] > cur[1] {
				covered += cur[1] - cur[0]
				cur = c
			} else {
				cur[1] = max(cur[1], c[1])
			}
		}
		covered += cur[1] - cur[0]
		self[i] = s.end - s.start - covered
	}
	return self
}

// layerAgg aggregates the spans of one name.
type layerAgg struct {
	calls      int
	total      time.Duration // sum of durations
	self       time.Duration // sum of self times
	selfs      []float64     // per-call self time, seconds
	size, work float64
}

func (a *layerAgg) meanSeconds() float64 { return ratio(a.total.Seconds(), float64(a.calls)) }

// aggregate groups spans by name; spans with a label are also grouped
// under "name/label".
func aggregate(spans []span) (map[string]*layerAgg, time.Duration) {
	self := selfTimes(spans)
	out := map[string]*layerAgg{}
	var rootTotal time.Duration
	add := func(key string, i int) {
		a := out[key]
		if a == nil {
			a = &layerAgg{}
			out[key] = a
		}
		s := spans[i]
		a.calls++
		a.total += s.end - s.start
		a.self += self[i]
		a.selfs = append(a.selfs, self[i].Seconds())
		a.size += s.size
		a.work += s.work
	}
	for i, s := range spans {
		if s.parent < 0 {
			rootTotal += s.end - s.start
		}
		add(s.name, i)
		if s.label != "" {
			add(s.name+"/"+s.label, i)
		}
	}
	return out, rootTotal
}

// printLayerTable prints calls, total and median self time, and each
// span name's share of the traced ops' time (concurrent spans, such as
// sweep points, can add up past 100%).
func printLayerTable(w io.Writer, aggs map[string]*layerAgg, rootTotal time.Duration) {
	var names []string
	for n := range aggs {
		if !strings.Contains(n, "/") {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return aggs[names[i]].self > aggs[names[j]].self })
	fmt.Fprintf(w, "%-20s %9s %12s %14s %8s\n", "span", "calls", "self_ms", "p50_self_us", "share")
	for _, n := range names {
		a := aggs[n]
		fmt.Fprintf(w, "%-20s %9d %12.2f %14.2f %7.2f%%\n", n, a.calls,
			a.self.Seconds()*1e3, median(a.selfs)*1e6, 100*ratio(a.self.Seconds(), rootTotal.Seconds()))
	}
}

// writeChromeTrace writes the spans as Chrome trace-event JSON (complete
// "X" events), which Perfetto and chrome://tracing open.  Each op's
// spans go to one or more lanes (tids) so overlapping siblings, like
// concurrent sweep points, never mis-nest; every event carries its
// trace id, span id and parent in args.
func writeChromeTrace(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ms","traceEvents":[`)
	tids := laneTids(spans)
	for i, s := range spans {
		if i > 0 {
			w.WriteString(",\n")
		}
		name := s.name
		if s.label != "" {
			name += " " + s.label
		}
		fmt.Fprintf(w, `{"name":%q,"ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"trace_id":%d,"span_id":%d,"parent":%d}}`,
			name, tids[i], float64(s.start)/1e3, float64(s.end-s.start)/1e3, s.trace, i, s.parent)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// laneTids assigns every span a thread id such that spans on one tid
// nest properly: a span joins the first lane of its op whose open span
// contains it, and opens a new lane otherwise.
func laneTids(spans []span) []int {
	order := make([]int, len(spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := spans[order[a]], spans[order[b]]
		if sa.trace != sb.trace {
			return sa.trace < sb.trace
		}
		if sa.start != sb.start {
			return sa.start < sb.start
		}
		return sa.end > sb.end
	})
	tids := make([]int, len(spans))
	next := 0
	var lanes [][]int // per lane, the stack of open spans
	var laneTid []int
	trace := -1
	for _, i := range order {
		s := spans[i]
		if s.trace != trace {
			trace, lanes, laneTid = s.trace, nil, nil
		}
		placed := false
		for l := range lanes {
			st := lanes[l]
			for len(st) > 0 && spans[st[len(st)-1]].end <= s.start {
				st = st[:len(st)-1]
			}
			if len(st) == 0 || spans[st[len(st)-1]].end >= s.end {
				lanes[l] = append(st, i)
				tids[i] = laneTid[l]
				placed = true
				break
			}
			lanes[l] = st
		}
		if !placed {
			lanes = append(lanes, []int{i})
			laneTid = append(laneTid, next)
			tids[i] = next
			next++
		}
	}
	return tids
}
