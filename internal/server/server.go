// Package server puts the deterministic Montage simulator behind a
// long-running HTTP daemon: the paper's Figure-2 scenario -- a mosaic
// portal fielding a stream of requests -- made literal.  cmd/reprosrv is
// the thin binary around it.
//
// Endpoints:
//
//	POST /v2/run                one simulation from a declarative v2
//	                            scenario document (cached, coalesced;
//	                            trace:true returns the flight-recorder
//	                            timeline and bypasses the cache)
//	GET  /v2/run                the same run streamed as an NDJSON
//	                            flight-recorder trace (?scenario= is the
//	                            URL-encoded scenario document)
//	POST /v2/sweep              any-axis scenario grid ({axis, values}
//	                            pairs over any scenario path), streamed
//	                            as NDJSON rows in grid order
//	GET  /v2/experiments        the registered paper experiments
//	GET  /v2/experiments/{name} run one experiment (tables as JSON)
//	POST /v2/experiments/{name} run one experiment with a params body
//	                            ({"seed": ..., "grid": {...}})
//	GET  /v2/advisor            provisioning recommendations, each one a
//	                            ready-to-POST v2 scenario
//	GET  /healthz               liveness
//	GET  /metrics               Prometheus text exposition
//
// Every simulation is a deterministic function of its (spec, plan)
// pair, which buys three things at once: responses are cacheable (a
// size-bounded LRU keyed by wire.CanonicalRunKeyV2, the pair's JSON
// encoding, stores the marshaled bytes, so a hit is byte-identical to a
// cold run); concurrent identical requests coalesce singleflight-style
// into one simulation; and admitted work runs on a bounded worker pool
// with per-request context cancellation, so a client hanging up aborts
// its grid and SIGTERM drains in-flight requests before the process
// exits.
//
// The same determinism extends the cache beyond the process:
// Config.StoreDir adds a disk-backed content-addressed tier
// (internal/store) that survives restarts, and Config.Peers shards the
// key space across a replica pool on a consistent-hash ring
// (internal/shard), relaying each /v2/run to its owner and scattering
// /v2/sweep grids per point.  Both address a run by store.HashKey of
// its key.  The tier order is memory -> disk -> owning peer -> compute;
// every tier serves byte-identical documents, and any store or peer
// failure degrades to the next tier, never to an error.
package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/montage"
	"repro/internal/shard"
	"repro/internal/store"
	"repro/wire"
)

// Config sizes the daemon.  The zero value picks sensible defaults.
type Config struct {
	// MaxConcurrent bounds how many simulations run at once; <= 0 means
	// GOMAXPROCS.  (Grid endpoints hold one slot and fan out internally
	// on the sweep engine's own GOMAXPROCS pool, matching how the CLI
	// nests sweeps.)
	MaxConcurrent int
	// QueueDepth bounds how many admitted requests may wait for a worker
	// slot before new ones are refused with 503; <= 0 means 64.
	QueueDepth int
	// CacheEntries bounds the LRU result cache; <= 0 means 1024.
	CacheEntries int
	// WorkflowCacheEntries bounds the server's workflow-generation memo.
	// Requests choose arbitrary mosaic sizes and every distinct spec
	// pins a multi-thousand-task DAG, so unlike the CLI's preset-only
	// process cache this one must be bounded; <= 0 means 64.
	WorkflowCacheEntries int
	// DrainTimeout caps how long Serve waits for in-flight requests
	// after its context is canceled; <= 0 means 30s.
	DrainTimeout time.Duration
	// StoreDir, when non-empty, enables the disk-backed content-addressed
	// result store (internal/store): a second cache tier under the LRU
	// that survives restarts and can be shared by replicas on one volume.
	StoreDir string
	// StoreMaxBytes bounds the disk store; <= 0 means 1 GiB.  Eviction is
	// least-recently-used.
	StoreMaxBytes int64
	// Peers, when non-empty, is the full replica set of a sharded pool --
	// every member's advertised host:port, this replica included.  The
	// consistent-hash ring over it routes /v2/run by canonical-key hash
	// and splits /v2/sweep grids across owners.
	Peers []string
	// Self is this replica's own address as it appears in Peers.
	// Required when Peers is set.
	Self string
	// PeerTimeout caps one relay round trip to a peer; <= 0 means 30s.
	// A peer that misses it degrades that request to local computation.
	PeerTimeout time.Duration
	// Version is the build version surfaced on reprosrv_build_info and
	// /healthz; empty means "dev".
	Version string
	// Logger receives one structured line per request (request ID,
	// endpoint, status, latency); nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 1024
	}
	if c.WorkflowCacheEntries <= 0 {
		c.WorkflowCacheEntries = 64
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.StoreMaxBytes <= 0 {
		c.StoreMaxBytes = 1 << 30
	}
	return c
}

// Server is the simulation service.  Create it with New; it is safe for
// concurrent use by the HTTP stack.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	cache    *resultCache
	wfCache  *montage.Cache
	flights  flightGroup
	metrics  *metrics
	sem      chan struct{}
	waiting  atomic.Int64
	logger   *slog.Logger
	ridNonce string
	ridSeq   atomic.Uint64

	// store is the disk tier under the LRU, and writer the write-behind
	// queue in front of its Put; both nil when StoreDir is unset.
	store  *store.Store
	writer *storeWriter
	// ring/relay shard the v2 key space across Peers; nil off a pool.
	ring  *shard.Ring
	relay *shard.Client
	self  string

	// testHookPreSim, when set by tests in this package, runs inside the
	// worker slot just before a /v2/run simulation starts.
	testHookPreSim func()
	// testHookSweepPoint, when set by tests in this package, runs before
	// each sweep grid point simulates; returning an error fails that
	// point, which is how tests force a mid-stream failure.
	testHookSweepPoint func(index int) error
}

// New builds a server from the config.  It fails when the result store
// directory cannot be opened or the shard configuration is inconsistent
// (Peers without Self, or Self missing from Peers) -- a replica that
// silently dropped its persistence or its ring position would defeat
// both subsystems.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(discardLogs{})
	}
	m := newMetrics(cfg.Version)
	s := &Server{
		cfg:      cfg,
		cache:    newResultCache(cfg.CacheEntries),
		wfCache:  montage.NewCache(cfg.WorkflowCacheEntries),
		flights:  flightGroup{panics: &m.panics},
		metrics:  m,
		sem:      make(chan struct{}, cfg.MaxConcurrent),
		logger:   logger,
		ridNonce: newRequestIDNonce(),
	}
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{
			MaxBytes:    cfg.StoreMaxBytes,
			WireVersion: wire.Version,
		})
		if err != nil {
			return nil, err
		}
		s.store = st
	}
	if len(cfg.Peers) > 0 {
		if cfg.Self == "" {
			return nil, fmt.Errorf("server: a peer set needs Self, this replica's own address in it")
		}
		ring, err := shard.New(cfg.Peers)
		if err != nil {
			return nil, err
		}
		if !ring.Contains(cfg.Self) {
			return nil, fmt.Errorf("server: Self %q is not in the peer set %v", cfg.Self, ring.Members())
		}
		s.ring = ring
		s.self = cfg.Self
		s.relay = shard.NewClient(cfg.PeerTimeout)
	}
	if s.store != nil {
		s.writer = newStoreWriter(s.store, &m.storeDropped, &m.storeQueued)
	}
	// Endpoint labels are the stable metrics keys of the routes: every
	// route is wrapped by instrument (request ID + counter + latency
	// histogram + one structured log line).
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v2/run", s.instrument("run_v2", s.handleRunV2))
	mux.HandleFunc("GET /v2/run", s.instrument("trace_v2", s.handleRunTraceV2))
	mux.HandleFunc("POST /v2/sweep", s.instrument("sweep_v2", s.handleSweepV2))
	mux.HandleFunc("GET /v2/experiments", s.instrument("experiments", s.handleExperiments))
	mux.HandleFunc("GET /v2/experiments/{name}", s.instrument("experiment", s.handleExperiment))
	mux.HandleFunc("POST /v2/experiments/{name}", s.instrument("experiment_v2", s.handleExperimentV2))
	mux.HandleFunc("POST /v2/experiments/policy-tournament", s.instrument("tournament_v2", s.handleTournamentV2))
	mux.HandleFunc("GET /v2/advisor", s.instrument("advisor_v2", s.handleAdvisorV2))
	mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	mux.HandleFunc("GET /metrics", s.instrument("metrics", s.handleMetrics))
	s.mux = mux
	return s, nil
}

// Handler returns the service's HTTP handler (for tests and embedding).
func (s *Server) Handler() http.Handler { return s.mux }

// Close stops the store's write-behind queue and returns once every
// result already queued is on disk.  Misses answered after it are still
// cached in memory, but their writes are dropped and counted.  Serve's
// drain calls it after the HTTP server has shut down; a Server used
// only through Handler calls it before its store directory is read
// back.  It is safe to call more than once.
func (s *Server) Close() {
	if s.writer != nil {
		s.writer.close()
	}
}

// errBusy is returned by admit when the wait queue is full.
var errBusy = errors.New("server: at capacity, try again later")

// admit blocks until a worker slot is free (or ctx is done) and returns
// the release function for the slot.  At most QueueDepth requests may
// wait; beyond that admit fails fast with errBusy so a overload degrades
// into quick 503s instead of an unbounded queue.
func (s *Server) admit(ctx context.Context) (release func(), err error) {
	if s.waiting.Add(1) > int64(s.cfg.QueueDepth) {
		s.waiting.Add(-1)
		s.metrics.rejected.Add(1)
		return nil, errBusy
	}
	s.metrics.queued.Add(1)
	defer func() {
		s.waiting.Add(-1)
		s.metrics.queued.Add(-1)
	}()
	select {
	case s.sem <- struct{}{}:
		s.metrics.inflight.Add(1)
		return func() {
			<-s.sem
			s.metrics.inflight.Add(-1)
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Serve accepts connections on l until ctx is canceled, then drains:
// in-flight requests get up to DrainTimeout to finish before the
// process gives up on them, and then Close persists every queued store
// write.  It returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, l net.Listener) error {
	srv := &http.Server{
		Handler: s.Handler(),
		// Sweeps over 4-degree workflows stream for a while; only bound
		// the read side (headers + small JSON bodies).
		ReadHeaderTimeout: 10 * time.Second,
	}
	shutdownErr := make(chan error, 1)
	//repro:detached shutdown watcher is joined via shutdownErr only on the graceful-drain path; on listener error or external close it exits with the process
	go func() {
		<-ctx.Done()
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		shutdownErr <- srv.Shutdown(dctx)
	}()
	if err := srv.Serve(l); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if ctx.Err() == nil {
		// Serve returned without a shutdown (listener closed externally).
		return nil
	}
	err := <-shutdownErr
	s.Close()
	return err
}
