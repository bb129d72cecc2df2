// Command reprosrv serves the Montage cost simulator as a long-running
// HTTP daemon: the paper's Figure-2 mosaic portal, made literal.
//
// Usage:
//
//	reprosrv -addr 127.0.0.1:8080
//	reprosrv -addr 127.0.0.1:0 -workers 8 -queue 128 -cache 2048
//	reprosrv -addr 127.0.0.1:8080 -debug-addr 127.0.0.1:6060
//
// Endpoints (see internal/server): POST /v2/run, GET /v2/run (NDJSON
// trace stream), POST /v2/sweep (NDJSON stream), GET /v2/experiments,
// GET and POST /v2/experiments/{name}, GET /v2/advisor, GET /healthz,
// GET /metrics.
//
// Every request is logged as one structured line (request ID, endpoint,
// status, latency) via log/slog; -quiet drops them.  -debug-addr serves
// net/http/pprof on a separate listener, kept off the public mux so
// profiling endpoints are never exposed by accident.
//
// The daemon prints "listening on HOST:PORT" once the socket is open
// (so -addr :0 is scriptable) and drains in-flight requests on SIGTERM
// or SIGINT before exiting.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/server"
)

// version is the build version, stamped via
// -ldflags "-X main.version=...".  "dev" for plain go-build binaries.
var version = "dev"

func main() {
	addr := flag.String("addr", "127.0.0.1:8080", "listen address (host:port; port 0 picks a free port)")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	queue := flag.Int("queue", 0, "max requests waiting for a worker before 503 (0 = 64)")
	cache := flag.Int("cache", 0, "result cache entries (0 = 1024)")
	storeDir := flag.String("store-dir", "", "directory for the disk-backed result store (empty = disabled); results persist across restarts")
	storeMax := flag.Int64("store-max-bytes", 0, "disk-store size bound in bytes before LRU eviction (0 = 1 GiB)")
	peers := flag.String("peers", "", "comma-separated replica set (host:port each, this replica included) for sharded serving (empty = standalone)")
	self := flag.String("self", "", "this replica's own address as it appears in -peers (required with -peers)")
	peerTimeout := flag.Duration("peer-timeout", 0, "per-relay peer round-trip cap (0 = 30s)")
	drain := flag.Duration("drain", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	debugAddr := flag.String("debug-addr", "", "optional separate listen address for net/http/pprof (empty = disabled)")
	quiet := flag.Bool("quiet", false, "suppress per-request log lines")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var logger *slog.Logger
	if !*quiet {
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}

	if *debugAddr != "" {
		if err := serveDebug(ctx, *debugAddr, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "reprosrv: debug listener: %v\n", err)
			os.Exit(1)
		}
	}

	if err := run(ctx, *addr, server.Config{
		MaxConcurrent: *workers,
		QueueDepth:    *queue,
		CacheEntries:  *cache,
		StoreDir:      *storeDir,
		StoreMaxBytes: *storeMax,
		Peers:         splitPeers(*peers),
		Self:          *self,
		PeerTimeout:   *peerTimeout,
		DrainTimeout:  *drain,
		Version:       version,
		Logger:        logger,
	}, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "reprosrv: %v\n", err)
		os.Exit(1)
	}
}

// run listens on addr and serves until ctx is canceled, announcing the
// bound address on w so callers can find a :0-assigned port.
func run(ctx context.Context, addr string, cfg server.Config, w io.Writer) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	srv, err := server.New(cfg)
	if err != nil {
		l.Close()
		return err
	}
	fmt.Fprintf(w, "listening on %s\n", l.Addr())
	return srv.Serve(ctx, l)
}

// splitPeers parses the -peers flag: comma-separated addresses, blanks
// dropped, nil when the flag is empty so the standalone path stays the
// zero config.
func splitPeers(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// serveDebug opens the pprof listener and serves it in the background.
// The profiling mux is built by hand rather than using http.DefaultServeMux,
// so nothing else that registers against the default mux leaks onto the
// debug port.
func serveDebug(ctx context.Context, addr string, w io.Writer) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	fmt.Fprintf(w, "pprof on %s\n", l.Addr())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	//repro:detached watchdog closes the debug server on shutdown and dies with the process
	go func() {
		<-ctx.Done()
		srv.Close()
	}()
	//repro:detached debug pprof server serves until the watchdog closes it at process exit
	go srv.Serve(l) //nolint:errcheck
	return nil
}
