package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestBytesConversions(t *testing.T) {
	tests := []struct {
		name   string
		b      Bytes
		wantGB float64
	}{
		{"zero", 0, 0},
		{"one GB", Bytes(1e9), 1},
		{"mosaic 1deg", Bytes(173.46 * MB), 0.17346},
		{"archive 12TB", Bytes(12 * TB), 12000},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if !almostEqual(tt.b.GB(), tt.wantGB, 1e-9) {
				t.Errorf("GB() = %v, want %v", tt.b.GB(), tt.wantGB)
			}
		})
	}
}

func TestBytesString(t *testing.T) {
	tests := []struct {
		b    Bytes
		want string
	}{
		{0, "0 B"},
		{512, "512 B"},
		{Bytes(2 * KB), "2.0 kB"},
		{Bytes(173.46 * MB), "173.46 MB"},
		{Bytes(2.229 * GB), "2.229 GB"},
		{Bytes(12 * TB), "12.000 TB"},
	}
	for _, tt := range tests {
		if got := tt.b.String(); got != tt.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(tt.b), got, tt.want)
		}
	}
}

func TestBytesOfRounds(t *testing.T) {
	if got := BytesOf(1.4); got != 1 {
		t.Errorf("BytesOf(1.4) = %d, want 1", got)
	}
	if got := BytesOf(1.6); got != 2 {
		t.Errorf("BytesOf(1.6) = %d, want 2", got)
	}
	if got := BytesOf(-2.5); got != -2 && got != -3 {
		t.Errorf("BytesOf(-2.5) = %d, want -2 or -3", got)
	}
}

func TestDuration(t *testing.T) {
	d := Duration(5.5 * SecondsPerHour)
	if !almostEqual(d.Hours(), 5.5, 1e-12) {
		t.Errorf("Hours() = %v, want 5.5", d.Hours())
	}
	if d.String() != "5.50 h" {
		t.Errorf("String() = %q, want %q", d.String(), "5.50 h")
	}
	if got := Duration(90).String(); got != "1.5 min" {
		t.Errorf("String() = %q, want %q", got, "1.5 min")
	}
	if got := Duration(12).String(); got != "12.0 s" {
		t.Errorf("String() = %q, want %q", got, "12.0 s")
	}
}

func TestMoneyString(t *testing.T) {
	tests := []struct {
		m    Money
		want string
	}{
		{0.56, "$0.5600"},
		{2.25, "$2.25"},
		{34632, "$34632.00"},
		{0.0001, "$0.0001"},
	}
	for _, tt := range tests {
		if got := tt.m.String(); got != tt.want {
			t.Errorf("Money(%v).String() = %q, want %q", float64(tt.m), got, tt.want)
		}
	}
}

func TestMbps(t *testing.T) {
	bw := Mbps(10)
	if !almostEqual(bw.BytesPerSecond(), 1.25e6, 1e-6) {
		t.Errorf("10 Mbps = %v B/s, want 1.25e6", bw.BytesPerSecond())
	}
	if bw.String() != "10.0 Mbps" {
		t.Errorf("String() = %q, want %q", bw.String(), "10.0 Mbps")
	}
}

func TestTransferTime(t *testing.T) {
	bw := Mbps(10)
	// 173.46 MB at 10 Mbps: 173.46e6 / 1.25e6 = 138.768 s.
	got := bw.TransferTime(Bytes(173.46 * MB))
	if !almostEqual(got.Seconds(), 138.768, 1e-6) {
		t.Errorf("TransferTime = %v s, want 138.768", got.Seconds())
	}
	if zero := Bandwidth(0).TransferTime(100); zero != 0 {
		t.Errorf("TransferTime at zero bandwidth = %v, want 0", zero)
	}
}

func TestGBHoursAndMonths(t *testing.T) {
	// 1 GB held for 1 hour = 1 GB-hour.
	bs := GB * SecondsPerHour
	if !almostEqual(GBHours(bs), 1, 1e-12) {
		t.Errorf("GBHours = %v, want 1", GBHours(bs))
	}
	// 12 TB for a month = 12,000 GB-months (x $0.15 = $1,800 -- paper Q2b).
	bs = 12 * TB * SecondsPerMonth
	if !almostEqual(GBMonths(bs), 12000, 1e-6) {
		t.Errorf("GBMonths = %v, want 12000", GBMonths(bs))
	}
}

// Property: TransferTime scales linearly with size at fixed bandwidth.
func TestTransferTimeLinearity(t *testing.T) {
	bw := Mbps(10)
	f := func(n uint32) bool {
		a := bw.TransferTime(Bytes(n)).Seconds()
		b := bw.TransferTime(Bytes(2 * uint64(n))).Seconds()
		return almostEqual(2*a, b, 1e-9*math.Max(1, b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: GBHours and GBMonths stay proportional (720 hours per month).
func TestStorageUnitProportion(t *testing.T) {
	f := func(v uint32) bool {
		bs := float64(v)
		h, m := GBHours(bs), GBMonths(bs)
		return almostEqual(h, m*HoursPerMonth, 1e-9*math.Max(1, h))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
