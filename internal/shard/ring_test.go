package shard

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
)

func TestRingSingleMemberOwnsEverything(t *testing.T) {
	r, err := New([]string{"a:1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if got := r.Owner(store.HashKey(fmt.Sprintf("key-%d", i))); got != "a:1" {
			t.Fatalf("owner = %q, want a:1", got)
		}
	}
}

func TestRingDeterministicAcrossMemberOrder(t *testing.T) {
	r1, err := New([]string{"a:1", "b:2", "c:3"})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := New([]string{"c:3", "a:1", "b:2", "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 500; i++ {
		h := store.HashKey(fmt.Sprintf("key-%d", i))
		if r1.Owner(h) != r2.Owner(h) {
			t.Fatalf("ownership differs for key %d: %q vs %q", i, r1.Owner(h), r2.Owner(h))
		}
	}
}

func TestRingSpreadsKeys(t *testing.T) {
	members := []string{"a:1", "b:2", "c:3", "d:4"}
	r, err := New(members)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[string]int)
	const n = 4000
	for i := 0; i < n; i++ {
		counts[r.Owner(store.HashKey(fmt.Sprintf("key-%d", i)))]++
	}
	for _, m := range members {
		share := float64(counts[m]) / n
		if share < 0.10 || share > 0.45 {
			t.Fatalf("member %s owns %.0f%% of keys; distribution badly skewed: %v", m, share*100, counts)
		}
	}
}

func TestRingMinimalReshuffleOnMembershipChange(t *testing.T) {
	r3, err := New([]string{"a:1", "b:2", "c:3"})
	if err != nil {
		t.Fatal(err)
	}
	r4, err := New([]string{"a:1", "b:2", "c:3", "d:4"})
	if err != nil {
		t.Fatal(err)
	}
	const n = 2000
	moved := 0
	for i := 0; i < n; i++ {
		h := store.HashKey(fmt.Sprintf("key-%d", i))
		if r3.Owner(h) != r4.Owner(h) {
			if r4.Owner(h) != "d:4" {
				t.Fatalf("key %d moved between surviving members (%s -> %s)", i, r3.Owner(h), r4.Owner(h))
			}
			moved++
		}
	}
	// Adding one of four members should claim roughly a quarter of keys.
	if moved < n/10 || moved > n/2 {
		t.Fatalf("adding a member moved %d/%d keys; expected about a quarter", moved, n)
	}
}

func TestRingRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty ring accepted")
	}
	if _, err := New([]string{""}); err == nil {
		t.Fatal("empty member address accepted")
	}
}

func TestRingContains(t *testing.T) {
	r, err := New([]string{"b:2", "a:1"})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Contains("a:1") || !r.Contains("b:2") || r.Contains("c:3") {
		t.Fatal("Contains misreports membership")
	}
}

func TestClientRelaysAndMarksRequests(t *testing.T) {
	var gotRelay, gotBody string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		gotRelay = r.Header.Get(RelayHeader)
		b := make([]byte, r.ContentLength)
		r.Body.Read(b) //nolint:errcheck
		gotBody = string(b)
		fmt.Fprint(w, `{"version": 2}`)
	}))
	defer ts.Close()
	c := NewClient(0)
	peer := strings.TrimPrefix(ts.URL, "http://")
	body, err := c.Run(context.Background(), peer, []byte(`{"version":2}`))
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != `{"version": 2}` {
		t.Fatalf("body = %q", body)
	}
	if gotRelay != "1" {
		t.Fatal("relay header not set")
	}
	if gotBody != `{"version":2}` {
		t.Fatalf("scenario body = %q", gotBody)
	}
}

func TestClientSurfacesPeerErrors(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := NewClient(0)
	if _, err := c.Run(context.Background(), strings.TrimPrefix(ts.URL, "http://"), []byte(`{}`)); err == nil {
		t.Fatal("peer 500 reported as success")
	}
}

func TestClientFailsFastOnDeadPeer(t *testing.T) {
	c := NewClient(0)
	if _, err := c.Run(context.Background(), "127.0.0.1:1", []byte(`{}`)); err == nil {
		t.Fatal("dead peer reported as success")
	}
}
