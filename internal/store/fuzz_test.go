package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"
)

// FuzzStoreEnvelope writes arbitrary bytes at key K's entry path and
// reads K back.  Get must never panic, and must answer either a miss --
// counted, and also counted as corrupt with the file removed, since
// bytes were there -- or a body, only when the envelope records exactly
// K under the versions this store reads.
func FuzzStoreEnvelope(f *testing.F) {
	const key = `{"Spec":{"Name":"k"}}`
	enc := &Store{opts: Options{WireVersion: 2}}
	valid, err := enc.encode(key, []byte(`{"version": 2}`+"\n"))
	if err != nil {
		f.Fatal(err)
	}
	other, err := enc.encode(`{"Spec":{"Name":"j"}}`, []byte(`{"version": 2}`+"\n"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(other)
	// Truncations inside and at the end of each header field: magic,
	// envelope version, wire version, key length and key.
	for _, n := range []int{0, 4, 8, 10, 12, 14, 16, 18, 20, 20 + len(key)/2, 20 + len(key)} {
		f.Add(valid[:n])
	}
	flipped := bytes.Clone(valid)
	flipped[len(flipped)-8] ^= 0xff // the gzip trailer's CRC-32
	f.Add(flipped)
	huge := bytes.Clone(valid)
	binary.BigEndian.PutUint32(huge[16:20], 0xFFFFFFFF)
	f.Add(huge)

	f.Fuzz(func(t *testing.T, raw []byte) {
		s, err := Open(t.TempDir(), Options{WireVersion: 2})
		if err != nil {
			t.Fatal(err)
		}
		path := s.path(HashKey(key))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		_, ok := s.Get(key)
		st := s.Stats()
		if ok {
			if !recordsKey(raw, key, 2) {
				t.Fatalf("a body for an envelope that does not record key %q", key)
			}
			if st.Hits != 1 || st.Misses != 0 || st.Corrupt != 0 {
				t.Fatalf("hit counted as %+v", st)
			}
			return
		}
		if st.Hits != 0 || st.Misses != 1 || st.Corrupt != 1 {
			t.Fatalf("miss over present bytes counted as %+v", st)
		}
		if _, err := os.Stat(path); !os.IsNotExist(err) {
			t.Fatalf("corrupt entry left on disk: %v", err)
		}
	})
}

// recordsKey reports whether raw's header carries the magic, this
// package's envelope version, wire version wire, and exactly key.
func recordsKey(raw []byte, key string, wire uint32) bool {
	const header = len(magic) + 12
	return len(raw) >= header+len(key) &&
		bytes.Equal(raw[:len(magic)], magic[:]) &&
		binary.BigEndian.Uint32(raw[8:12]) == envelopeVersion &&
		binary.BigEndian.Uint32(raw[12:16]) == wire &&
		binary.BigEndian.Uint32(raw[16:20]) == uint32(len(key)) &&
		string(raw[header:header+len(key)]) == key
}
