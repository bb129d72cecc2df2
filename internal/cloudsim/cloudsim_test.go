package cloudsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestStorageByteSeconds(t *testing.T) {
	s := NewStorage(2, true)
	const a, b = 0, 1
	if err := s.Put(0, a, 100); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(10, b, 50); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(20, a); err != nil {
		t.Fatal(err)
	}
	// [0,10): 100 B; [10,20): 150 B; [20,30): 50 B.
	got := s.ByteSeconds(30)
	want := 100.0*10 + 150*10 + 50*10
	if got != want {
		t.Errorf("ByteSeconds(30) = %v, want %v", got, want)
	}
	if s.Peak() != 150 {
		t.Errorf("Peak = %d, want 150", s.Peak())
	}
	if s.Current() != 50 {
		t.Errorf("Current = %d, want 50", s.Current())
	}
	if s.Count() != 1 || !s.Has(b) || s.Has(a) {
		t.Error("file inventory wrong after delete")
	}
	curve := s.Curve()
	if len(curve) != 4 { // origin + three changes
		t.Errorf("curve has %d points, want 4", len(curve))
	}
}

func TestStorageErrors(t *testing.T) {
	s := NewStorage(2, false)
	if err := s.Put(0, 0, -1); err == nil {
		t.Error("negative size accepted")
	}
	if err := s.Put(0, 0, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(1, 0, 10); err == nil {
		t.Error("duplicate put accepted")
	}
	if err := s.Delete(2, 1); err == nil {
		t.Error("delete of absent file accepted")
	}
	if s.Curve() != nil {
		t.Error("curve recorded despite recordCurve=false")
	}
}

func TestStorageTimeMonotonicity(t *testing.T) {
	s := NewStorage(2, false)
	s.Put(10, 0, 1)
	defer func() {
		if recover() == nil {
			t.Error("time going backwards did not panic")
		}
	}()
	s.Put(5, 1, 1)
}

// TestStorageResetMatchesNew checks that a reset storage system is the
// one NewStorage returns, whether Reset shrinks or grows it, and that a
// curve returned before the reset is left as it was.
func TestStorageResetMatchesNew(t *testing.T) {
	s := NewStorage(4, true)
	for slot := 0; slot < 4; slot++ {
		if err := s.Put(units.Duration(slot), slot, 10); err != nil {
			t.Fatal(err)
		}
	}
	old := s.Curve()
	want := append([]UsagePoint(nil), old...)
	for _, slots := range []int{2, 8} {
		for _, record := range []bool{false, true} {
			s.Reset(slots, record)
			fresh := NewStorage(slots, record)
			if s.Count() != 0 || s.Current() != 0 || s.Peak() != 0 || s.ByteSeconds(0) != 0 {
				t.Fatalf("Reset(%d, %v) left state behind", slots, record)
			}
			for slot := 0; slot < slots; slot++ {
				if err := s.Put(5, slot, 3); err != nil {
					t.Fatalf("Reset(%d, %v): slot %d: %v", slots, record, slot, err)
				}
				fresh.Put(5, slot, 3)
			}
			if s.ByteSeconds(9) != fresh.ByteSeconds(9) || s.Peak() != fresh.Peak() ||
				len(s.Curve()) != len(fresh.Curve()) {
				t.Errorf("Reset(%d, %v) differs from NewStorage", slots, record)
			}
		}
	}
	for i := range want {
		if old[i] != want[i] {
			t.Fatalf("Reset rewrote an earlier curve: %v, want %v", old, want)
		}
	}
}

// Property: byte-seconds equals the step-function integral recomputed
// from the recorded curve, for any event sequence.
func TestPropStorageIntegralMatchesCurve(t *testing.T) {
	f := func(ops []struct {
		Dt   uint8
		Size uint16
	}) bool {
		s := NewStorage(26, true)
		now := units.Duration(0)
		n := 0
		for _, op := range ops {
			now += units.Duration(op.Dt)
			slot := n % 26
			if s.Has(slot) {
				if err := s.Delete(now, slot); err != nil {
					return false
				}
			} else {
				if err := s.Put(now, slot, units.Bytes(op.Size)); err != nil {
					return false
				}
			}
			n++
		}
		end := now + 100
		got := s.ByteSeconds(end)

		// Recompute from the curve.
		curve := s.Curve()
		var want float64
		for i := 1; i < len(curve); i++ {
			want += float64(curve[i-1].Bytes) * (curve[i].Time - curve[i-1].Time).Seconds()
		}
		want += float64(curve[len(curve)-1].Bytes) * (end - curve[len(curve)-1].Time).Seconds()
		return math.Abs(got-want) <= 1e-6*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestLinkSerializesFIFO(t *testing.T) {
	l, err := NewLink(units.Bandwidth(10)) // 10 B/s
	if err != nil {
		t.Fatal(err)
	}
	s1, e1, err := l.Reserve(0, 100, In) // 10 s transfer
	if err != nil {
		t.Fatal(err)
	}
	if s1 != 0 || e1 != 10 {
		t.Errorf("first transfer [%v,%v], want [0,10]", s1, e1)
	}
	// Requested at t=5 while busy: starts at 10.
	s2, e2, err := l.Reserve(5, 50, Out)
	if err != nil {
		t.Fatal(err)
	}
	if s2 != 10 || e2 != 15 {
		t.Errorf("second transfer [%v,%v], want [10,15]", s2, e2)
	}
	// Requested after the link is free again: starts immediately.
	s3, e3, err := l.Reserve(100, 10, In)
	if err != nil {
		t.Fatal(err)
	}
	if s3 != 100 || e3 != 101 {
		t.Errorf("third transfer [%v,%v], want [100,101]", s3, e3)
	}
	if l.BytesIn() != 110 || l.BytesOut() != 50 {
		t.Errorf("bytes in/out = %d/%d, want 110/50", l.BytesIn(), l.BytesOut())
	}
	if l.FreeAt() != 101 {
		t.Errorf("FreeAt = %v, want 101", l.FreeAt())
	}
}

func TestLinkErrors(t *testing.T) {
	if _, err := NewLink(0); err == nil {
		t.Error("zero bandwidth accepted")
	}
	l, _ := NewLink(units.Mbps(10))
	if _, _, err := l.Reserve(0, -5, In); err == nil {
		t.Error("negative size accepted")
	}
	if _, _, err := l.Reserve(0, 5, Direction(9)); err == nil {
		t.Error("bogus direction accepted")
	}
}

func TestDirectionString(t *testing.T) {
	if In.String() != "in" || Out.String() != "out" {
		t.Errorf("Direction strings = %q/%q", In.String(), Out.String())
	}
}

// Property: reservations made together run back to back, so the link
// stays busy for total bytes divided by bandwidth: the last one ends at
// the sum of their transfer times.
func TestPropLinkBusyTime(t *testing.T) {
	f := func(sizes []uint16) bool {
		l, _ := NewLink(units.Bandwidth(1000))
		var total float64
		for i, sz := range sizes {
			dir := In
			if i%2 == 1 {
				dir = Out
			}
			if _, _, err := l.Reserve(0, units.Bytes(sz), dir); err != nil {
				return false
			}
			total += float64(sz)
		}
		want := total / 1000
		return math.Abs(l.FreeAt().Seconds()-want) <= 1e-9*math.Max(1, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClusterAccounting(t *testing.T) {
	c, err := NewFleet(2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.AcquireReliable(0) {
		t.Fatal("reliable acquire on a uniform pool succeeded")
	}
	if !c.AcquireSpot(0) {
		t.Fatal("first acquire failed")
	}
	if !c.AcquireSpot(0) {
		t.Fatal("second acquire failed")
	}
	if c.AcquireSpot(0) {
		t.Fatal("third acquire on a 2-proc cluster succeeded")
	}
	if c.Busy() != 2 || c.Free() != 0 {
		t.Errorf("busy/free = %d/%d, want 2/0", c.Busy(), c.Free())
	}
	if err := c.ReleaseSpot(10); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSpot(20); err != nil {
		t.Fatal(err)
	}
	// 2 procs busy on [0,10), 1 on [10,20): 2*10 + 1*10 = 30 proc-s,
	// against 2*20 = 40 proc-s of capacity.
	if got := c.BusyProcSeconds(20); got != 30 {
		t.Errorf("BusyProcSeconds = %v, want 30", got)
	}
	if got := c.CapacityProcSeconds(20); got != 40 {
		t.Errorf("CapacityProcSeconds = %v, want 40", got)
	}
	if err := c.ReleaseSpot(20); err == nil {
		t.Error("release with nothing busy accepted")
	}
	if err := c.ReleaseReliable(20); err == nil {
		t.Error("reliable release on a uniform pool accepted")
	}
}

func TestClusterRevokeRestore(t *testing.T) {
	c, err := NewFleet(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.AcquireSpot(0) || !c.AcquireSpot(0) {
		t.Fatal("acquires failed")
	}
	// Two idle slots can go; a third would strand a busy task.
	if err := c.Revoke(5, 2); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 2 || c.Provisioned() != 4 || c.Free() != 0 {
		t.Errorf("total/provisioned/free = %d/%d/%d, want 2/4/0", c.Total(), c.Provisioned(), c.Free())
	}
	if err := c.Revoke(5, 1); err == nil {
		t.Error("revoking a busy slot accepted")
	}
	if c.AcquireSpot(5) {
		t.Error("acquire succeeded on a fully revoked pool")
	}
	if err := c.Restore(10, 3); err == nil {
		t.Error("restore past the provisioned size accepted")
	}
	if err := c.Restore(10, 2); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 4 || c.Free() != 2 {
		t.Errorf("after restore total/free = %d/%d, want 4/2", c.Total(), c.Free())
	}
	if err := c.Revoke(10, -1); err == nil {
		t.Error("negative revoke accepted")
	}
	if err := c.Revoke(10, 5); err == nil {
		t.Error("revoking more than present accepted")
	}
	// The busy integral is unaffected by capacity changes: 2 busy the
	// whole [0,15) window.
	if err := c.ReleaseSpot(15); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSpot(15); err != nil {
		t.Fatal(err)
	}
	if got := c.BusyProcSeconds(15); got != 30 {
		t.Errorf("BusyProcSeconds = %v, want 30", got)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := NewFleet(0, 0); err == nil {
		t.Error("zero-processor cluster accepted")
	}
	c, _ := NewFleet(1, 0)
	if busy, capacity := c.BusyProcSeconds(0), c.CapacityProcSeconds(0); busy != 0 || capacity != 0 {
		t.Errorf("integrals at 0 = %v busy / %v capacity, want 0/0", busy, capacity)
	}
}

// Regression for the capacity-aware utilization fix: a revoke/restore
// window mid-run must shrink the capacity integral, the utilization
// denominator, to the capacity that was actually present, not the
// instantaneous final pool size.
func TestClusterUtilizationIntegratesCapacity(t *testing.T) {
	c, err := NewFleet(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !c.AcquireSpot(0) || !c.AcquireSpot(0) {
		t.Fatal("acquires failed")
	}
	// 4 procs present on [0,10), 2 on [10,30), 4 again on [30,40):
	// capacity = 40 + 40 + 40 = 120 proc-s.
	if err := c.Revoke(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(30, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSpot(40); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSpot(40); err != nil {
		t.Fatal(err)
	}
	// 2 busy the whole [0,40): 80 proc-s, against 120 proc-s of
	// capacity, not the 160 the static 4-proc pool would misreport.
	if got := c.CapacityProcSeconds(40); got != 120 {
		t.Errorf("CapacityProcSeconds = %v, want 120", got)
	}
	if got := c.BusyProcSeconds(40); got != 80 {
		t.Errorf("BusyProcSeconds = %v, want 80", got)
	}
}

func TestFleetSubPools(t *testing.T) {
	if _, err := NewFleet(4, 5); err == nil {
		t.Error("reliable sub-pool larger than the fleet accepted")
	}
	if _, err := NewFleet(4, -1); err == nil {
		t.Error("negative reliable sub-pool accepted")
	}
	c, err := NewFleet(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Reliable() != 2 || c.SpotTotal() != 2 {
		t.Fatalf("reliable/spot = %d/%d, want 2/2", c.Reliable(), c.SpotTotal())
	}
	if !c.AcquireReliable(0) || !c.AcquireReliable(0) {
		t.Fatal("reliable acquires failed")
	}
	if c.AcquireReliable(0) {
		t.Error("third reliable acquire succeeded on a 2-reliable fleet")
	}
	if !c.AcquireSpot(0) {
		t.Fatal("spot acquire failed")
	}
	if c.FreeReliable() != 0 || c.SpotFree() != 1 {
		t.Errorf("free reliable/spot = %d/%d, want 0/1", c.FreeReliable(), c.SpotFree())
	}
	// Revocations may never touch the reliable floor: only the one idle
	// spot slot can go.
	if err := c.Revoke(10, 2); err == nil {
		t.Error("revoking into the reliable floor accepted")
	}
	if err := c.Revoke(10, 1); err != nil {
		t.Fatal(err)
	}
	if c.Total() != 3 || c.SpotTotal() != 1 || c.SpotFree() != 0 {
		t.Errorf("total/spot/spot-free = %d/%d/%d, want 3/1/0", c.Total(), c.SpotTotal(), c.SpotFree())
	}
	if err := c.ReleaseSpot(20); err != nil {
		t.Fatal(err)
	}
	if err := c.ReleaseSpot(20); err == nil {
		t.Error("spot release with no spot processor busy accepted")
	}
	if err := c.ReleaseReliable(20); err != nil {
		t.Fatal(err)
	}
	// Sub-pool busy integrals: reliable 2 busy on [0,20), spot 1 busy on
	// [0,20); total 3*20 = 60 of which 20 on spot.
	if got := c.BusyProcSeconds(20); got != 60 {
		t.Errorf("BusyProcSeconds = %v, want 60", got)
	}
	if got := c.SpotBusyProcSeconds(20); got != 20 {
		t.Errorf("SpotBusyProcSeconds = %v, want 20", got)
	}
}

// Property: utilization is always within [0, 1]: the busy integral
// never exceeds the capacity integral.
func TestPropClusterUtilizationBounds(t *testing.T) {
	f := func(events []bool, procs uint8) bool {
		n := int(procs%8) + 1
		c, _ := NewFleet(n, 0)
		now := units.Duration(0)
		for _, acquire := range events {
			now += 1
			if acquire {
				c.AcquireSpot(now)
			} else if c.Busy() > 0 {
				if err := c.ReleaseSpot(now); err != nil {
					return false
				}
			}
		}
		busy, capacity := c.BusyProcSeconds(now+1), c.CapacityProcSeconds(now+1)
		return busy >= 0 && busy <= capacity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestClusterReliableCapacitySplit(t *testing.T) {
	// 4-proc fleet, 1 reliable: revoke 2 spot slots over [10,30].  Total
	// capacity 4*10 + 2*20 + 4*10 = 120; the reliable share is 1*40.
	c, err := NewFleet(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Revoke(10, 2); err != nil {
		t.Fatal(err)
	}
	if err := c.Restore(30, 2); err != nil {
		t.Fatal(err)
	}
	if got := c.CapacityProcSeconds(40); got != 120 {
		t.Errorf("CapacityProcSeconds = %v, want 120", got)
	}
	if got := c.ReliableCapacityProcSeconds(40); got != 40 {
		t.Errorf("ReliableCapacityProcSeconds = %v, want 40", got)
	}
}
