// Package cloudsim models the cloud substrate of the paper's simulator:
// a compute resource with a fixed number of processors, an S3-like shared
// storage system with time-weighted usage accounting, and a fixed-
// bandwidth link between the user and the cloud.
//
// The paper's custom GridSim modification was exactly this storage
// accounting: "creating a curve that shows the amount of storage used at
// the resource with the passage of time and then calculating the area
// under the curve."  Storage reproduces that curve and its integral.
package cloudsim

import (
	"fmt"

	"repro/internal/units"
)

// UsagePoint is one step of the storage usage curve.
type UsagePoint struct {
	Time  units.Duration
	Bytes units.Bytes
}

// Storage is a shared storage resource with infinite capacity and exact
// byte-seconds accounting.  Stored objects live in dense integer slots
// that the caller assigns (the executor maps resident files, per-task
// staged copies and checkpoint images onto them), so the accounting
// hashes nothing and allocates nothing once constructed.  It is not
// safe for concurrent use; the simulation kernel is single-threaded by
// design.
type Storage struct {
	sizes       []units.Bytes // per slot; absent < 0
	current     units.Bytes
	peak        units.Bytes
	lastTime    units.Duration
	byteSeconds float64
	recordCurve bool
	curve       []UsagePoint
}

// NewStorage returns an empty storage system with the given number of
// slots.  When recordCurve is true, every change is appended to a usage
// curve retrievable via Curve (used by tests and the report tooling;
// large simulations can leave it off).
func NewStorage(slots int, recordCurve bool) *Storage {
	s := &Storage{sizes: make([]units.Bytes, slots), recordCurve: recordCurve}
	for i := range s.sizes {
		s.sizes[i] = -1
	}
	if recordCurve {
		s.curve = append(s.curve, UsagePoint{0, 0})
	}
	return s
}

// advance accumulates the area under the usage curve up to now.
func (s *Storage) advance(now units.Duration) {
	if now < s.lastTime {
		panic(fmt.Sprintf("cloudsim: storage time went backwards: %v < %v", now, s.lastTime))
	}
	s.byteSeconds += float64(s.current) * (now - s.lastTime).Seconds()
	s.lastTime = now
}

// Put stores an object in a slot.  Storing into an occupied slot is an
// error: the execution engines never legitimately double-store.
func (s *Storage) Put(now units.Duration, slot int, size units.Bytes) error {
	if size < 0 {
		return fmt.Errorf("cloudsim: negative size %d for slot %d", size, slot)
	}
	if s.sizes[slot] >= 0 {
		return fmt.Errorf("cloudsim: slot %d already stored", slot)
	}
	s.advance(now)
	s.sizes[slot] = size
	s.current += size
	if s.current > s.peak {
		s.peak = s.current
	}
	if s.recordCurve {
		s.curve = append(s.curve, UsagePoint{now, s.current})
	}
	return nil
}

// Delete empties a slot; deleting from an empty slot is an error.
func (s *Storage) Delete(now units.Duration, slot int) error {
	size := s.sizes[slot]
	if size < 0 {
		return fmt.Errorf("cloudsim: delete from empty slot %d", slot)
	}
	s.advance(now)
	s.sizes[slot] = -1
	s.current -= size
	if s.recordCurve {
		s.curve = append(s.curve, UsagePoint{now, s.current})
	}
	return nil
}

// Has reports whether the slot currently holds an object.
func (s *Storage) Has(slot int) bool { return s.sizes[slot] >= 0 }

// Current returns the bytes stored right now.
func (s *Storage) Current() units.Bytes { return s.current }

// Peak returns the high-water mark of stored bytes.
func (s *Storage) Peak() units.Bytes { return s.peak }

// Count returns the number of occupied slots.
func (s *Storage) Count() int {
	n := 0
	for _, size := range s.sizes {
		if size >= 0 {
			n++
		}
	}
	return n
}

// ByteSeconds returns the area under the usage curve from time zero up
// to now (inclusive of the span since the last change).
func (s *Storage) ByteSeconds(now units.Duration) float64 {
	s.advance(now)
	return s.byteSeconds
}

// Curve returns the recorded usage curve (nil unless recording was
// requested at construction).
func (s *Storage) Curve() []UsagePoint { return s.curve }
