package server

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/montage"
	"repro/internal/store"
)

// latencyBuckets are the upper bounds of the request-duration histogram,
// in seconds: cache hits land in the low millisecond buckets, cold
// 4-degree simulations and long sweeps in the tail.
var latencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// hist is one endpoint's latency histogram: cumulative on exposition,
// plain per-bucket counts in memory.  Guarded by metrics.mu.
type hist struct {
	counts []uint64 // one per bucket, +Inf implicit in count
	sum    float64
	count  uint64
}

// metrics holds the daemon's operational counters.  Counters are
// atomics; the label maps take a short mutex on the request path and a
// snapshot on exposition, so scrapes never serialize simulations.
type metrics struct {
	mu        sync.Mutex
	requests  map[string]*atomic.Uint64 // per-endpoint request count
	durations map[string]*hist          // per-endpoint latency histogram

	simulations atomic.Uint64 // simulations actually executed
	coalesced   atomic.Uint64 // requests that joined another's flight
	rejected    atomic.Uint64 // requests refused at the admission queue
	errors      atomic.Uint64 // requests that failed

	peerFetches  atomic.Uint64 // runs relayed to their owning replica
	peerFailures atomic.Uint64 // relays that degraded to local computation

	storeDropped atomic.Uint64 // store writes refused by a full or closed queue
	storeQueued  atomic.Int64  // store writes queued and not yet persisted
	panics       atomic.Uint64 // panics recovered in flights and sweep workers

	inflight atomic.Int64 // requests holding a worker slot
	queued   atomic.Int64 // requests waiting for a worker slot

	version string    // build version, stamped via -ldflags
	start   time.Time // process start, for the uptime gauge
}

func newMetrics(version string) *metrics {
	if version == "" {
		version = "dev"
	}
	return &metrics{
		requests:  make(map[string]*atomic.Uint64),
		durations: make(map[string]*hist),
		version:   version,
		start:     time.Now(), //repro:nondet-ok process start anchors the uptime gauge, never a simulation
	}
}

// count records one request against an endpoint label.
func (m *metrics) count(endpoint string) {
	m.mu.Lock()
	c, ok := m.requests[endpoint]
	if !ok {
		c = new(atomic.Uint64)
		m.requests[endpoint] = c
	}
	m.mu.Unlock()
	c.Add(1)
}

// observe records one request's latency against an endpoint label.
func (m *metrics) observe(endpoint string, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h, ok := m.durations[endpoint]
	if !ok {
		h = &hist{counts: make([]uint64, len(latencyBuckets))}
		m.durations[endpoint] = h
	}
	for i, le := range latencyBuckets {
		if seconds <= le {
			h.counts[i]++
			break
		}
	}
	h.sum += seconds
	h.count++
}

// family is one metric family ready for exposition: its metadata plus
// fully rendered sample lines.  Families are emitted sorted by name, so
// the exposition is stable across scrapes no matter in which order the
// lazily created per-endpoint labels first appeared.
type family struct {
	name, typ, help string
	samples         []string
}

// fmtFloat renders a float the shortest way that round-trips, the
// conventional Prometheus sample encoding.
func fmtFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// snapshot renders every family under a single lock acquisition.
func (m *metrics) snapshot(cache CacheStats, wf montage.CacheStats, st store.Stats) []family {
	m.mu.Lock()
	endpoints := make([]string, 0, len(m.requests))
	for e := range m.requests {
		endpoints = append(endpoints, e)
	}
	sort.Strings(endpoints)
	counts := make(map[string]uint64, len(endpoints))
	for _, e := range endpoints {
		counts[e] = m.requests[e].Load()
	}
	observed := make([]string, 0, len(m.durations))
	for e := range m.durations {
		observed = append(observed, e)
	}
	sort.Strings(observed)
	hists := make(map[string]hist, len(observed))
	for _, e := range observed {
		h := m.durations[e]
		hists[e] = hist{counts: append([]uint64(nil), h.counts...), sum: h.sum, count: h.count}
	}
	m.mu.Unlock()

	var fams []family
	reqFam := family{name: "reprosrv_requests_total", typ: "counter", help: "Requests received, by endpoint."}
	for _, e := range endpoints {
		reqFam.samples = append(reqFam.samples, fmt.Sprintf("reprosrv_requests_total{endpoint=%q} %d", e, counts[e]))
	}
	fams = append(fams, reqFam)

	durFam := family{name: "reprosrv_request_duration_seconds", typ: "histogram", help: "Request latency, by endpoint."}
	for _, e := range observed {
		h := hists[e]
		cum := uint64(0)
		for i, le := range latencyBuckets {
			cum += h.counts[i]
			durFam.samples = append(durFam.samples,
				fmt.Sprintf("reprosrv_request_duration_seconds_bucket{endpoint=%q,le=%q} %d", e, fmtFloat(le), cum))
		}
		durFam.samples = append(durFam.samples,
			fmt.Sprintf("reprosrv_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d", e, h.count),
			fmt.Sprintf("reprosrv_request_duration_seconds_sum{endpoint=%q} %s", e, fmtFloat(h.sum)),
			fmt.Sprintf("reprosrv_request_duration_seconds_count{endpoint=%q} %d", e, h.count))
	}
	fams = append(fams, durFam)

	counter := func(name, help string, v uint64) {
		fams = append(fams, family{name: name, typ: "counter", help: help,
			samples: []string{fmt.Sprintf("%s %d", name, v)}})
	}
	gauge := func(name, help string, v int64) {
		fams = append(fams, family{name: name, typ: "gauge", help: help,
			samples: []string{fmt.Sprintf("%s %d", name, v)}})
	}
	counter("reprosrv_simulations_total", "Simulations actually executed.", m.simulations.Load())
	counter("reprosrv_coalesced_requests_total", "Requests that joined another request's in-flight simulation.", m.coalesced.Load())
	counter("reprosrv_rejected_total", "Requests refused at the admission queue.", m.rejected.Load())
	counter("reprosrv_errors_total", "Requests that failed.", m.errors.Load())
	counter("reprosrv_panics_total", "Panics recovered in a simulation and answered as an error.", m.panics.Load())
	gauge("reprosrv_in_flight", "Requests currently holding a worker slot.", m.inflight.Load())
	gauge("reprosrv_queue_depth", "Requests waiting for a worker slot.", m.queued.Load())
	counter("reprosrv_result_cache_hits_total", "Result-cache hits.", cache.Hits)
	counter("reprosrv_result_cache_misses_total", "Result-cache misses.", cache.Misses)
	counter("reprosrv_result_cache_evictions_total", "Result-cache LRU evictions.", cache.Evictions)
	gauge("reprosrv_result_cache_entries", "Result-cache resident entries.", int64(cache.Entries))
	counter("reprosrv_workflow_cache_hits_total", "Workflow-generation-cache hits.", wf.Hits)
	counter("reprosrv_workflow_cache_misses_total", "Workflow-generation-cache misses.", wf.Misses)
	counter("reprosrv_workflow_cache_evictions_total", "Workflow-generation-cache LRU evictions.", wf.Evictions)
	gauge("reprosrv_workflow_cache_entries", "Workflow-generation-cache resident entries.", int64(wf.Entries))
	// Store and peer families are emitted even when those subsystems are
	// off (all zeros): the exposition schema stays identical across
	// configurations, so dashboards and the conformance tests never see
	// families appear or vanish.
	counter("reprosrv_store_hits_total", "Disk-store hits.", st.Hits)
	counter("reprosrv_store_misses_total", "Disk-store misses.", st.Misses)
	counter("reprosrv_store_writes_total", "Disk-store entries persisted.", st.Writes)
	counter("reprosrv_store_evictions_total", "Disk-store LRU evictions.", st.Evictions)
	counter("reprosrv_store_corrupt_total", "Disk-store entries dropped as corrupt.", st.Corrupt)
	counter("reprosrv_store_dropped_total", "Disk-store writes dropped because the write-behind queue was full or closed.", m.storeDropped.Load())
	gauge("reprosrv_store_queue_depth", "Disk-store writes queued behind the response and not yet persisted.", m.storeQueued.Load())
	gauge("reprosrv_store_entries", "Disk-store resident entries.", int64(st.Entries))
	gauge("reprosrv_store_bytes", "Disk-store resident bytes.", st.Bytes)
	counter("reprosrv_peer_fetches_total", "Runs relayed to their owning replica.", m.peerFetches.Load())
	counter("reprosrv_peer_failures_total", "Peer relays that degraded to local computation.", m.peerFailures.Load())
	fams = append(fams, family{
		name: "reprosrv_build_info", typ: "gauge",
		help: "Build metadata; the value is always 1.",
		samples: []string{fmt.Sprintf("reprosrv_build_info{go_version=%q,version=%q} 1",
			runtime.Version(), m.version)},
	})
	fams = append(fams, family{
		name: "reprosrv_uptime_seconds", typ: "gauge",
		help: "Seconds since the process started.",
		samples: []string{fmt.Sprintf("reprosrv_uptime_seconds %s",
			fmtFloat(time.Since(m.start).Seconds()))}, //repro:nondet-ok the uptime gauge is wall-clock by definition
	})
	return fams
}

// write renders the counters in the Prometheus text exposition format:
// families sorted by name, each preceded by its # HELP and # TYPE
// lines, so scrapers ingest them with the right semantics and two
// scrapes of the same state are byte-identical apart from sample
// values.
func (m *metrics) write(w io.Writer, cache CacheStats, wf montage.CacheStats, st store.Stats) {
	fams := m.snapshot(cache, wf, st)
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
		for _, s := range f.samples {
			fmt.Fprintln(w, s)
		}
	}
}

// uptime reports how long the process has been up (also on /healthz, so
// the health probe doubles as a readiness signal with history).
func (m *metrics) uptime() time.Duration { return time.Since(m.start) } //repro:nondet-ok the uptime gauge is wall-clock by definition
