// Package store is a disk-backed content-addressed result store: the
// persistence tier under the server's in-memory LRU.  Every simulation
// is a deterministic function of its canonical run key, so a result
// written once under the SHA-256 of that key can be served forever --
// across process restarts, and by every replica sharing the volume --
// byte-identical to what re-simulating would produce.
//
// On-disk layout: one file per entry at <dir>/<hh>/<hash>.rpr, where
// hash is the hex SHA-256 of the canonical key and hh its first two
// characters (a fan-out that keeps directories small).  Writes are
// write-once: the envelope is assembled in a temp file in <dir>,
// fsync'd, and atomically renamed into place, so readers never observe
// a partial entry and a crash leaves at worst a stale temp file that
// the next Open sweeps away.
//
// Each file is a versioned envelope:
//
//	[8]byte  magic "RPSTORE1"
//	uint32   envelope format version (big-endian)
//	uint32   wire schema version of the body
//	uint32   canonical key length
//	[]byte   canonical key (verified against the requested key on read)
//	[]byte   gzip stream of the result document bytes
//
// The gzip trailer's CRC-32 covers the body, so a flipped bit anywhere
// in the payload fails the read.  Reads are corruption-tolerant by
// contract: any malformed entry -- bad magic, truncated header, wrong
// key, failed CRC, alien wire version -- is deleted, counted, and
// reported as a miss, never as an error; the caller recomputes and the
// next Put repairs the entry.
//
// Eviction is a byte-bounded LRU: the in-memory index (rebuilt at Open
// by scanning the directory, ordered by file modification time as the
// atime approximation) tracks access recency, and a Put that pushes the
// store over its bound deletes the least-recently-used entries first.
package store

import (
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// gzipWriters recycles the envelope compressors: each gzip.Writer
// carries about 800 KB of deflate state, so a fresh one per Put would
// make that garbage on every persisted result.  Reset restores the
// default level and an empty header, so a recycled writer emits the
// same bytes as a new one.
var gzipWriters = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// magic opens every envelope; the trailing 1 is the format generation.
var magic = [8]byte{'R', 'P', 'S', 'T', 'O', 'R', 'E', '1'}

// envelopeVersion is the on-disk format version this package writes.
const envelopeVersion = 1

// maxKeyLen bounds the canonical-key field of an envelope header, so a
// corrupted length word cannot make a read allocate gigabytes.
const maxKeyLen = 1 << 20

// suffix is the entry file extension.
const suffix = ".rpr"

// Options configures a store.
type Options struct {
	// MaxBytes bounds the total size of resident entry files; <= 0 means
	// unbounded.  A Put that crosses the bound evicts least-recently-used
	// entries until the store fits again.
	MaxBytes int64
	// WireVersion is the schema version of the bodies this store holds.
	// Entries recorded under a different wire version read as misses (and
	// are deleted), so a schema bump quietly retires the old generation.
	WireVersion int
}

// Stats is a snapshot of the store's counters and occupancy.
type Stats struct {
	Hits      uint64
	Misses    uint64
	Writes    uint64
	Evictions uint64
	// Corrupt counts entries that failed to read back -- bad magic,
	// truncated envelope, key mismatch, CRC failure, or a stale wire
	// version.  Each one also counts as a miss.
	Corrupt uint64
	Entries int
	Bytes   int64
	// MaxBytes echoes the configured bound (0 = unbounded).
	MaxBytes int64
	Dir      string
}

// entry is one resident result in the recency list.
type entry struct {
	hash string
	size int64
	// prev/next link the intrusive LRU list; head side is most recent.
	prev, next *entry
}

// Store is the content-addressed result store.  It is safe for
// concurrent use; the envelope encode/decode work runs outside the
// index lock, so readers and writers only serialize on bookkeeping.
type Store struct {
	dir  string
	opts Options

	hits      atomic.Uint64
	misses    atomic.Uint64
	writes    atomic.Uint64
	evictions atomic.Uint64
	corrupt   atomic.Uint64

	mu    sync.Mutex
	index map[string]*entry
	head  *entry // most recently used
	tail  *entry // least recently used
	bytes int64
}

// Open creates (or reopens) the store rooted at dir: stale temp files
// from interrupted writes are removed and the in-memory index is rebuilt
// by scanning the entry files, ordered oldest-first by modification time
// so the LRU starts from an atime approximation.
func Open(dir string, opts Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opts: opts, index: make(map[string]*entry)}
	type scanned struct {
		hash string
		size int64
		mod  time.Time
	}
	var found []scanned
	top, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	for _, d := range top {
		if !d.IsDir() {
			// Interrupted writes leave tmp-* files at the top level; a
			// reopen is the natural point to sweep them.
			if strings.HasPrefix(d.Name(), "tmp-") {
				os.Remove(filepath.Join(dir, d.Name())) //nolint:errcheck
			}
			continue
		}
		sub, err := os.ReadDir(filepath.Join(dir, d.Name()))
		if err != nil {
			continue
		}
		for _, f := range sub {
			name := f.Name()
			if f.IsDir() || !strings.HasSuffix(name, suffix) {
				continue
			}
			hash := strings.TrimSuffix(name, suffix)
			if !validHash(hash) || !strings.HasPrefix(hash, d.Name()) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			found = append(found, scanned{hash: hash, size: info.Size(), mod: info.ModTime()})
		}
	}
	// Oldest first, hash as the deterministic tie-break; pushing each to
	// the front leaves the newest entry most recently used.
	sort.Slice(found, func(i, j int) bool {
		if !found[i].mod.Equal(found[j].mod) {
			return found[i].mod.Before(found[j].mod)
		}
		return found[i].hash < found[j].hash
	})
	for _, f := range found {
		e := &entry{hash: f.hash, size: f.size}
		s.index[f.hash] = e
		s.pushFront(e)
		s.bytes += f.size
	}
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// HashKey returns the content address of a canonical key: its SHA-256,
// hex-encoded.  Exposed so callers (tests, the shard router) can find
// an entry's file without re-deriving the scheme.
func HashKey(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}

// path maps a hash to its entry file.
func (s *Store) path(hash string) string {
	return filepath.Join(s.dir, hash[:2], hash+suffix)
}

// Get returns the stored body for key, or ok=false on a miss.  A
// malformed entry is deleted and reported as a miss (with the Corrupt
// counter stepped); Get never returns an error.
func (s *Store) Get(key string) (body []byte, ok bool) {
	hash := HashKey(key)
	raw, err := os.ReadFile(s.path(hash))
	if err != nil {
		// Not present (or vanished under a concurrent eviction): a plain
		// miss.  The index entry, if any, is dropped so occupancy stays
		// honest when another replica sharing the volume evicted the file.
		s.misses.Add(1)
		s.forget(hash)
		return nil, false
	}
	body, err = s.decode(raw, key)
	if err != nil {
		// Bad entry: count it, remove it, and let the caller recompute --
		// the next Put repairs the slot.
		s.corrupt.Add(1)
		s.misses.Add(1)
		s.forget(hash)
		os.Remove(s.path(hash)) //nolint:errcheck
		return nil, false
	}
	s.hits.Add(1)
	s.touch(hash, int64(len(raw)))
	return body, true
}

// Put stores body under key, atomically: temp file, fsync, rename.  A
// Put over an existing entry replaces it (the repair path after a
// corrupt read); determinism makes the replacement byte-identical
// anyway.  Eviction to the byte bound happens after the write, newest
// entry exempt.
func (s *Store) Put(key string, body []byte) error {
	if key == "" {
		return fmt.Errorf("store: empty key")
	}
	hash := HashKey(key)
	env, err := s.encode(key, body)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(s.dir, hash[:2]), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(env); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, s.path(hash))
	}
	if err != nil {
		os.Remove(tmpName) //nolint:errcheck
		return fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Join(s.dir, hash[:2]))
	s.writes.Add(1)
	s.record(hash, int64(len(env)))
	return nil
}

// Len reports the resident entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Stats snapshots the counters and occupancy.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	entries, bytes := len(s.index), s.bytes
	s.mu.Unlock()
	return Stats{
		Hits:      s.hits.Load(),
		Misses:    s.misses.Load(),
		Writes:    s.writes.Load(),
		Evictions: s.evictions.Load(),
		Corrupt:   s.corrupt.Load(),
		Entries:   entries,
		Bytes:     bytes,
		MaxBytes:  s.opts.MaxBytes,
		Dir:       s.dir,
	}
}

// encode assembles the on-disk envelope for (key, body).
func (s *Store) encode(key string, body []byte) ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(magic[:])
	var word [4]byte
	binary.BigEndian.PutUint32(word[:], envelopeVersion)
	buf.Write(word[:])
	binary.BigEndian.PutUint32(word[:], uint32(s.opts.WireVersion))
	buf.Write(word[:])
	if len(key) > maxKeyLen {
		return nil, fmt.Errorf("store: key of %d bytes exceeds the %d-byte bound", len(key), maxKeyLen)
	}
	binary.BigEndian.PutUint32(word[:], uint32(len(key)))
	buf.Write(word[:])
	buf.WriteString(key)
	zw := gzipWriters.Get().(*gzip.Writer)
	defer gzipWriters.Put(zw)
	zw.Reset(&buf)
	if _, err := zw.Write(body); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := zw.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return buf.Bytes(), nil
}

// decode parses an envelope and returns the body, verifying magic,
// versions, the recorded key, and (via the gzip trailer) the body CRC.
func (s *Store) decode(raw []byte, key string) ([]byte, error) {
	const header = len(magic) + 12
	if len(raw) < header || !bytes.Equal(raw[:len(magic)], magic[:]) {
		return nil, fmt.Errorf("store: bad envelope header")
	}
	if v := binary.BigEndian.Uint32(raw[8:12]); v != envelopeVersion {
		return nil, fmt.Errorf("store: envelope format v%d, want v%d", v, envelopeVersion)
	}
	if v := binary.BigEndian.Uint32(raw[12:16]); int(v) != s.opts.WireVersion {
		return nil, fmt.Errorf("store: body wire v%d, want v%d", v, s.opts.WireVersion)
	}
	keyLen := binary.BigEndian.Uint32(raw[16:20])
	if keyLen > maxKeyLen || int(keyLen) > len(raw)-header {
		return nil, fmt.Errorf("store: key length %d out of range", keyLen)
	}
	stored := raw[header : header+int(keyLen)]
	if string(stored) != key {
		return nil, fmt.Errorf("store: entry records a different key")
	}
	zr, err := gzip.NewReader(bytes.NewReader(raw[header+int(keyLen):]))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	body, err := io.ReadAll(zr)
	if cerr := zr.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return body, nil
}

// ---- index bookkeeping ----

// pushFront links e as most recently used.  Caller holds mu.
func (s *Store) pushFront(e *entry) {
	e.prev = nil
	e.next = s.head
	if s.head != nil {
		s.head.prev = e
	}
	s.head = e
	if s.tail == nil {
		s.tail = e
	}
}

// unlink removes e from the recency list.  Caller holds mu.
func (s *Store) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		s.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		s.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// touch marks hash most recently used, (re)inserting it if a concurrent
// replica wrote the file behind this index's back.
func (s *Store) touch(hash string, size int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.index[hash]
	if !ok {
		e = &entry{hash: hash, size: size}
		s.index[hash] = e
		s.bytes += size
		s.pushFront(e)
		return
	}
	s.unlink(e)
	s.pushFront(e)
}

// forget drops hash from the index (the file is already gone or bad).
func (s *Store) forget(hash string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.index[hash]; ok {
		s.unlink(e)
		delete(s.index, hash)
		s.bytes -= e.size
	}
}

// record registers a completed write and evicts past the byte bound,
// least recently used first; the entry just written is exempt, so one
// oversized result does not thrash the store empty.
func (s *Store) record(hash string, size int64) {
	s.mu.Lock()
	if e, ok := s.index[hash]; ok {
		s.bytes += size - e.size
		e.size = size
		s.unlink(e)
		s.pushFront(e)
	} else {
		e = &entry{hash: hash, size: size}
		s.index[hash] = e
		s.bytes += size
		s.pushFront(e)
	}
	var evict []string
	for s.opts.MaxBytes > 0 && s.bytes > s.opts.MaxBytes && s.tail != nil && s.tail.hash != hash {
		victim := s.tail
		s.unlink(victim)
		delete(s.index, victim.hash)
		s.bytes -= victim.size
		evict = append(evict, victim.hash)
	}
	s.mu.Unlock()
	for _, h := range evict {
		os.Remove(s.path(h)) //nolint:errcheck
		s.evictions.Add(1)
	}
}

// validHash reports whether name looks like a hex SHA-256.
func validHash(name string) bool {
	if len(name) != sha256.Size*2 {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// syncDir fsyncs a directory so a just-renamed entry survives power
// loss.  Best effort: filesystems that refuse directory fsync (or
// platforms without it) still get the atomic rename.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()  //nolint:errcheck
	d.Close() //nolint:errcheck
}
