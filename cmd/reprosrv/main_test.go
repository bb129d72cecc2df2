package main

import (
	"context"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

// syncBuffer is a goroutine-safe writer the test can poll for the
// "listening on" announcement.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestRunBootsAndServes(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var out syncBuffer
	done := make(chan error, 1)
	go func() { done <- run(ctx, "127.0.0.1:0", server.Config{}, &out) }()

	var addr string
	for deadline := time.Now().Add(10 * time.Second); addr == ""; {
		if s := out.String(); strings.HasPrefix(s, "listening on ") {
			addr = strings.TrimSpace(strings.TrimPrefix(s, "listening on "))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("daemon never announced its address")
		}
		select {
		case err := <-done:
			t.Fatalf("daemon exited early: %v", err)
		case <-time.After(time.Millisecond):
		}
	}

	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"ok"`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}

	resp, err = http.Post("http://"+addr+"/v2/run", "application/json",
		strings.NewReader(`{"version":2,"workflow":{"name":"1deg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"montage-1deg"`) {
		t.Fatalf("/v2/run = %d %s", resp.StatusCode, body)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Errorf("run returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancel")
	}
}

func TestRunBadAddress(t *testing.T) {
	if err := run(context.Background(), "256.0.0.1:bad", server.Config{}, io.Discard); err == nil {
		t.Error("bogus address accepted")
	}
}
