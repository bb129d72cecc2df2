package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
)

// TestStoreWriterDropsWhenFullOrClosed: enqueue never blocks and never
// sends on a closed queue; a refused write is counted, and close
// persists everything that was queued before it.
func TestStoreWriterDropsWhenFullOrClosed(t *testing.T) {
	var dropped atomic.Uint64
	var pending atomic.Int64
	// No writer goroutine drains this one-slot queue, so it fills.
	full := &storeWriter{dropped: &dropped, pending: &pending, queue: make(chan storeWrite, 1)}
	full.enqueue("a", []byte("1"))
	full.enqueue("b", []byte("2"))
	if got := dropped.Load(); got != 1 {
		t.Fatalf("full queue: dropped = %d, want 1", got)
	}

	dropped.Store(0)
	st, err := store.Open(t.TempDir(), store.Options{WireVersion: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := newStoreWriter(st, &dropped, &pending)
	for i := 0; i < 10; i++ {
		w.enqueue(fmt.Sprint("key-", i), []byte("body"))
	}
	w.close()
	w.close() // idempotent
	w.enqueue("late", []byte("body"))
	if got := st.Len(); got != 10 {
		t.Errorf("close left %d entries on disk, want 10", got)
	}
	if got := dropped.Load(); got != 1 {
		t.Errorf("write after close: dropped = %d, want 1", got)
	}
}

// TestStoreWriterQueueDepth: the pending gauge counts the writes queued
// and not yet persisted -- a refused write never shows in it -- and
// reads zero once close has persisted the queue, on /metrics too.
func TestStoreWriterQueueDepth(t *testing.T) {
	var dropped atomic.Uint64
	var pending atomic.Int64
	// No writer goroutine drains this three-slot queue.
	stalled := &storeWriter{dropped: &dropped, pending: &pending, queue: make(chan storeWrite, 3)}
	for i := 0; i < 5; i++ {
		stalled.enqueue(fmt.Sprint("key-", i), []byte("body"))
		if got, want := pending.Load(), int64(min(i+1, 3)); got != want {
			t.Fatalf("after %d writes to a stalled 3-slot queue: pending = %d, want %d", i+1, got, want)
		}
	}
	if got := dropped.Load(); got != 2 {
		t.Errorf("stalled queue: dropped = %d, want 2", got)
	}

	s, ts := newTestServer(t, Config{StoreDir: t.TempDir()})
	for i := 1; i <= 4; i++ {
		postV2Run(t, ts.URL, v2Scenario(i), false)
	}
	s.Close()
	if got := s.store.Stats().Writes; got != 4 {
		t.Fatalf("store writes = %d after Close, want 4", got)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), "\nreprosrv_store_queue_depth 0\n") {
		t.Errorf("/metrics after Close lacks reprosrv_store_queue_depth 0:\n%s", body)
	}
}

// TestServeDrainPersistsRacingMisses: distinct misses race the drain
// that canceling Serve's context starts.  Every miss that was answered
// is on disk once Serve returns, so a daemon restarted over the store
// directory serves each one from it, byte-identical.  A flight the
// drain detached may also persist a miss whose response the drain cut
// off, so the store can hold more entries than were answered, but never
// more than were simulated.
func TestServeDrainPersistsRacingMisses(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, l) }()

	// A client of its own: no keep-alive connection outlives the test.
	client := &http.Client{Transport: &http.Transport{}}
	const n = 16
	bodies := make([][]byte, n)
	answered := make(chan struct{}, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := client.Post("http://"+l.Addr().String()+"/v2/run", "application/json",
				strings.NewReader(v2Scenario(i+1)))
			if err != nil {
				return // refused by the drain: nothing was answered
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				return
			}
			if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "miss" {
				t.Errorf("scenario %d: status %d, X-Cache %q", i, resp.StatusCode, resp.Header.Get("X-Cache"))
				return
			}
			bodies[i] = b
			answered <- struct{}{}
		}(i)
	}
	select {
	case <-answered:
	case <-time.After(30 * time.Second):
		t.Fatal("no miss was answered")
	}
	cancel() // the SIGTERM path, while the other misses are still running
	wg.Wait()
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve = %v", err)
	}

	var want uint64
	for _, b := range bodies {
		if b != nil {
			want++
		}
	}
	t.Logf("%d of %d misses answered across the drain", want, n)
	sims := s.metrics.simulations.Load()
	if got := s.store.Stats().Writes; got < want || got > sims {
		t.Errorf("store writes = %d after the drain, want at least one per answered miss (%d) and at most one per simulation (%d)",
			got, want, sims)
	}
	if got := s.metrics.storeDropped.Load(); got != 0 {
		t.Errorf("the drain dropped %d writes", got)
	}
	_, ts := newTestServer(t, Config{StoreDir: dir})
	for i, b := range bodies {
		if b == nil {
			continue
		}
		resp, got := postV2Run(t, ts.URL, v2Scenario(i+1), false)
		if tier := resp.Header.Get("X-Cache"); tier != "store" {
			t.Errorf("scenario %d after restart: X-Cache = %q, want store", i, tier)
		}
		if !bytes.Equal(got, b) {
			t.Errorf("scenario %d: the store served different bytes", i)
		}
	}
}
