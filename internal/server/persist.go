package server

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/store"
)

// storeQueueDepth bounds the write-behind queue.  It is sized for a
// disk that stays slower than the misses for a while, not just for
// bursts: on a 2-vCPU host with a shared ext4 disk a store.Put took
// 1-5 ms under load, while one cold-mix connection produced a miss
// every ~2.8 ms, and the writer fell up to ~1,500 entries behind in a
// 20 s run.  4096 entries absorb a deficit over twice that.  The
// newest queued bodies are also in the 1024-entry result cache, so
// only the older ones cost memory: about 2 KB each, under 8 MB in all.
const storeQueueDepth = 4096

// storeWrite is one answered result waiting to be persisted.
type storeWrite struct {
	key  string
	body []byte
}

// storeWriter persists results off the response path.  Handlers queue
// (key, body) once the body is in the memory LRU and answer at once;
// one goroutine calls the synchronous store.Put for each entry in turn,
// so what reaches the disk is exactly as durable as before, only later.
// A stored result only spares a future recompute, so a full or closed
// queue drops the write and counts it rather than hold up an answer.
type storeWriter struct {
	st      *store.Store
	dropped *atomic.Uint64 // writes refused by a full or closed queue
	pending *atomic.Int64  // writes queued and not yet persisted

	mu     sync.Mutex // orders enqueue's send against close
	closed bool
	queue  chan storeWrite
	stop   context.CancelFunc // tells the writer to exit once the queue is empty
	done   chan struct{}      // closed when the writer has exited
}

// newStoreWriter starts the writer goroutine for st.  Whoever owns the
// writer must call close, which returns once the goroutine has exited.
func newStoreWriter(st *store.Store, dropped *atomic.Uint64, pending *atomic.Int64) *storeWriter {
	ctx, stop := context.WithCancel(context.Background())
	w := &storeWriter{
		st:      st,
		dropped: dropped,
		pending: pending,
		queue:   make(chan storeWrite, storeQueueDepth),
		stop:    stop,
		done:    make(chan struct{}),
	}
	//repro:detached the store writer lives as long as its Server; Server.Close (which Serve's drain calls) cancels ctx and waits on done
	go w.run(ctx)
	return w
}

// run persists queued writes until ctx is canceled and the queue is
// empty.
func (w *storeWriter) run(ctx context.Context) {
	defer close(w.done)
	for {
		select {
		case e := <-w.queue:
			w.st.Put(e.key, e.body) //nolint:errcheck // a failed persist only costs a future recompute
			w.pending.Add(-1)
		case <-ctx.Done():
			// close refuses new writes before it cancels, so an empty
			// queue stays empty.
			if len(w.queue) == 0 {
				return
			}
		}
	}
}

// enqueue hands one result to the writer without ever blocking.  The
// pending count rises before the send, so the writer's decrement never
// precedes it and the gauge never reads below zero.
func (w *storeWriter) enqueue(key string, body []byte) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.closed {
		w.pending.Add(1)
		select {
		case w.queue <- storeWrite{key: key, body: body}:
			return
		default:
			w.pending.Add(-1)
		}
	}
	w.dropped.Add(1)
}

// close stops accepting writes and returns once every write already
// queued is on disk.  It is safe to call more than once.
func (w *storeWriter) close() {
	w.mu.Lock()
	w.closed = true
	w.mu.Unlock()
	w.stop()
	<-w.done
}
