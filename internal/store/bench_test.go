package store

import (
	"bytes"
	"fmt"
	"testing"
)

// benchBody approximates a v2 run document: a few kilobytes of
// repetitive JSON, the shape the store actually holds.
func benchBody() []byte {
	var buf bytes.Buffer
	buf.WriteString("{\n  \"version\": 2,\n  \"rows\": [\n")
	for i := 0; i < 64; i++ {
		fmt.Fprintf(&buf, "    {\"index\": %d, \"makespan\": %d.5, \"total\": %d.25},\n", i, i*7, i*3)
	}
	buf.WriteString("  ]\n}\n")
	return buf.Bytes()
}

func BenchmarkStorePut(b *testing.B) {
	s, err := Open(b.TempDir(), Options{WireVersion: 2})
	if err != nil {
		b.Fatal(err)
	}
	body := benchBody()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Put(fmt.Sprintf("bench-key-%d", i), body); err != nil {
			b.Fatal(err)
		}
	}
}

// encodedSink keeps the benchmarked envelope live.
var encodedSink []byte

// BenchmarkStoreEncode is the CPU half of a Put: envelope assembly and
// gzip, no file I/O.
func BenchmarkStoreEncode(b *testing.B) {
	s, err := Open(b.TempDir(), Options{WireVersion: 2})
	if err != nil {
		b.Fatal(err)
	}
	body := benchBody()
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if encodedSink, err = s.encode("bench-key", body); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreGet(b *testing.B) {
	s, err := Open(b.TempDir(), Options{WireVersion: 2})
	if err != nil {
		b.Fatal(err)
	}
	body := benchBody()
	if err := s.Put("bench-key", body); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(body)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Get("bench-key"); !ok {
			b.Fatal("miss")
		}
	}
}

func BenchmarkStoreOpenScan(b *testing.B) {
	dir := b.TempDir()
	seed, err := Open(dir, Options{WireVersion: 2})
	if err != nil {
		b.Fatal(err)
	}
	body := benchBody()
	const entries = 256
	for i := 0; i < entries; i++ {
		if err := seed.Put(fmt.Sprintf("scan-key-%d", i), body); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(dir, Options{WireVersion: 2})
		if err != nil {
			b.Fatal(err)
		}
		if s.Len() != entries {
			b.Fatalf("scan indexed %d entries, want %d", s.Len(), entries)
		}
	}
}
