package server

// Tier and shard coverage over real HTTP: the disk store under the
// memory LRU (persistence across restarts, corruption fall-through and
// repair) and the consistent-hash peer tier (sharded sweeps, peer
// failure degrading to local computation, relay loop prevention).

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/shard"
)

// v2Scenario builds a distinct small scenario per processor count:
// distinct canonical keys, cheap simulations.
func v2Scenario(processors int) string {
	return fmt.Sprintf(`{"version": 2, "workflow": {"name": "1deg"}, "fleet": {"processors": %d}}`, processors)
}

func postV2Run(t *testing.T, url, body string, relayed bool) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url+"/v2/run", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if relayed {
		req.Header.Set(shard.RelayHeader, "1")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	return resp, b
}

// TestRunV2StoreTierServesEvictedEntries: an entry evicted from the
// memory LRU comes back byte-identical from the disk store, labeled
// X-Cache: store.
func TestRunV2StoreTierServesEvictedEntries(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 1, StoreDir: t.TempDir()})

	cold, coldBody := postV2Run(t, ts.URL, v2Scenario(4), false)
	if got := cold.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold X-Cache = %q, want miss", got)
	}
	// A second scenario evicts the first from the single-entry LRU.
	postV2Run(t, ts.URL, v2Scenario(8), false)
	// Misses are persisted behind their answers; Close waits for both
	// writes to land.
	s.Close()

	warm, warmBody := postV2Run(t, ts.URL, v2Scenario(4), false)
	if got := warm.Header.Get("X-Cache"); got != "store" {
		t.Errorf("post-eviction X-Cache = %q, want store", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("store tier served different bytes:\ncold: %s\nstore: %s", coldBody, warmBody)
	}
}

// TestRunV2StoreSurvivesRestart pins the acceptance criterion: a result
// computed by one daemon is served byte-identical -- without
// re-simulation -- by a fresh daemon over the same store directory.
func TestRunV2StoreSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	_, coldBody := postV2Run(t, ts1.URL, v2Scenario(4), false)
	ts1.Close()
	s1.Close() // what Serve's drain does on SIGTERM

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	warm, warmBody := postV2Run(t, ts2.URL, v2Scenario(4), false)
	if got := warm.Header.Get("X-Cache"); got != "store" {
		t.Errorf("restart X-Cache = %q, want store", got)
	}
	if !bytes.Equal(coldBody, warmBody) {
		t.Errorf("restarted daemon served different bytes:\nbefore: %s\nafter: %s", coldBody, warmBody)
	}
	if sims := s2.metrics.simulations.Load(); sims != 0 {
		t.Errorf("restarted daemon simulated %d times, want 0", sims)
	}
}

// TestRunV2CorruptStoreEntryRecomputesAndRepairs: a corrupted store
// file is a miss, never an error -- the request falls through to
// computation (byte-identical result) and the recompute repairs the
// entry on disk.
func TestRunV2CorruptStoreEntryRecomputesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: dir})
	_, coldBody := postV2Run(t, ts1.URL, v2Scenario(4), false)
	ts1.Close()
	s1.Close()

	corruptOneEntry(t, dir)

	s2, ts2 := newTestServer(t, Config{StoreDir: dir})
	resp, body := postV2Run(t, ts2.URL, v2Scenario(4), false)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Errorf("corrupt-entry X-Cache = %q, want miss (recompute)", got)
	}
	if !bytes.Equal(coldBody, body) {
		t.Errorf("recomputed bytes differ from original:\nwas: %s\nnow: %s", coldBody, body)
	}
	s2.Close() // the repair is written behind the answer
	st := s2.store.Stats()
	if st.Corrupt != 1 {
		t.Errorf("corrupt counter = %d, want 1", st.Corrupt)
	}
	if st.Writes != 1 || st.Entries != 1 {
		t.Errorf("repair: writes = %d entries = %d, want 1 and 1", st.Writes, st.Entries)
	}
}

// corruptOneEntry flips a byte near the end of the single store entry
// under dir (inside the gzip stream, so the CRC catches it).
func corruptOneEntry(t *testing.T, dir string) {
	t.Helper()
	var files []string
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err == nil && !info.IsDir() && strings.HasSuffix(path, ".rpr") {
			files = append(files, path)
		}
		return err
	})
	if err != nil || len(files) != 1 {
		t.Fatalf("expected exactly one store entry, got %v (err %v)", files, err)
	}
	b, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-3] ^= 0xff
	if err := os.WriteFile(files[0], b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// startReplicaPool boots n Server instances on real listeners wired
// into one peer ring and returns their addresses.  Serving goroutines
// drain on test cleanup.
func startReplicaPool(t *testing.T, n int) ([]*Server, []string) {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = l
		peers[i] = l.Addr().String()
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{}, n)
	servers := make([]*Server, n)
	for i, l := range listeners {
		s, err := New(Config{Peers: peers, Self: peers[i], StoreDir: t.TempDir()})
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = s
		go func(l net.Listener) {
			s.Serve(ctx, l) //nolint:errcheck
			done <- struct{}{}
		}(l)
	}
	t.Cleanup(func() {
		cancel()
		for range listeners {
			<-done
		}
	})
	return servers, peers
}

const shardedSweepDoc = `{
  "scenario": {"version": 2, "workflow": {"name": "1deg"}},
  "axes": [{"axis": "fleet.processors", "values": [1, 2, 3, 4, 5, 6, 7, 8]}]
}`

// TestSweepV2ShardedPoolMatchesSingleReplica pins the acceptance
// criterion: a sweep scattered across a two-replica pool streams NDJSON
// byte-identical to the single-replica stream -- same rows, same grid
// order, same terminal done envelope.
func TestSweepV2ShardedPoolMatchesSingleReplica(t *testing.T) {
	_, ref := newTestServer(t, Config{})
	resp, err := http.Post(ref.URL+"/v2/sweep", "application/json", strings.NewReader(shardedSweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	refBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: status %d err %v", resp.StatusCode, err)
	}

	servers, peers := startReplicaPool(t, 2)
	resp, err = http.Post("http://"+peers[0]+"/v2/sweep", "application/json", strings.NewReader(shardedSweepDoc))
	if err != nil {
		t.Fatal(err)
	}
	gotBody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded sweep: status %d err %v", resp.StatusCode, err)
	}
	if !bytes.Equal(refBody, gotBody) {
		t.Errorf("sharded sweep differs from single-replica stream:\nsingle: %s\nsharded: %s", refBody, gotBody)
	}
	if fails := servers[0].metrics.peerFailures.Load(); fails != 0 {
		t.Errorf("healthy pool recorded %d peer failures", fails)
	}
}

// TestRunV2PeerDownDegradesToLocal: with the owning peer unreachable,
// every run still answers 200 by computing locally, and at least one
// relay attempt is recorded against the dead peer.
func TestRunV2PeerDownDegradesToLocal(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := l.Addr().String()
	l.Close()
	s, err := New(Config{Peers: []string{self, "127.0.0.1:1"}, Self: self})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// 16 distinct keys: the chance the dead peer owns none of them is
	// 2^-16, so this deterministically exercises the degradation path.
	for p := 1; p <= 16; p++ {
		resp, _ := postV2Run(t, ts.URL, v2Scenario(p), false)
		if got := resp.Header.Get("X-Cache"); got != "miss" {
			t.Errorf("processors=%d X-Cache = %q, want miss (local compute)", p, got)
		}
	}
	if s.metrics.peerFetches.Load() == 0 {
		t.Error("no relay was ever attempted")
	}
	if s.metrics.peerFetches.Load() != s.metrics.peerFailures.Load() {
		t.Errorf("fetches %d != failures %d against a dead peer",
			s.metrics.peerFetches.Load(), s.metrics.peerFailures.Load())
	}
}

// TestRunV2RelayedRequestsNeverForward: a request already routed by a
// peer (RelayHeader set) is answered locally even when the ring says
// another replica owns it -- the loop-prevention contract.
func TestRunV2RelayedRequestsNeverForward(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	self := l.Addr().String()
	l.Close()
	s, err := New(Config{Peers: []string{self, "127.0.0.1:1"}, Self: self})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	for p := 1; p <= 8; p++ {
		postV2Run(t, ts.URL, v2Scenario(p), true)
	}
	if fetches := s.metrics.peerFetches.Load(); fetches != 0 {
		t.Errorf("relayed requests triggered %d forwards, want 0", fetches)
	}
}

// TestHealthzReportsStore: the health document grows a store block when
// (and only when) a store directory is configured.
func TestHealthzReportsStore(t *testing.T) {
	_, plain := newTestServer(t, Config{})
	_, body := getBody(t, plain.URL+"/healthz")
	if strings.Contains(string(body), `"store"`) {
		t.Errorf("storeless healthz mentions a store: %s", body)
	}

	dir := t.TempDir()
	s, ts := newTestServer(t, Config{StoreDir: dir})
	postV2Run(t, ts.URL, v2Scenario(4), false)
	s.Close() // the entry is written behind the answer
	_, body = getBody(t, ts.URL+"/healthz")
	for _, want := range []string{`"store"`, `"entries": 1`, dir} {
		if !strings.Contains(string(body), want) {
			t.Errorf("healthz missing %s: %s", want, body)
		}
	}
}
