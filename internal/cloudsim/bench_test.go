package cloudsim

import (
	"testing"

	"repro/internal/units"
)

// BenchmarkStoragePutDelete measures the accounting hot path.
func BenchmarkStoragePutDelete(b *testing.B) {
	const slots = 1000
	for i := 0; i < b.N; i++ {
		s := NewStorage(slots, false)
		now := units.Duration(0)
		for n := 0; n < slots; n++ {
			now++
			if err := s.Put(now, n, 1000); err != nil {
				b.Fatal(err)
			}
		}
		for n := 0; n < slots; n++ {
			now++
			if err := s.Delete(now, n); err != nil {
				b.Fatal(err)
			}
		}
		_ = s.ByteSeconds(now)
	}
}

// BenchmarkLinkReserve measures FIFO transfer booking.
func BenchmarkLinkReserve(b *testing.B) {
	l, err := NewLink(units.Mbps(10))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := l.Reserve(0, 1000, In); err != nil {
			b.Fatal(err)
		}
	}
}
