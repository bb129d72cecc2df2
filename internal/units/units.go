// Package units defines the value types shared by the whole simulator:
// byte counts, simulated durations, money, and bandwidth.
//
// The paper's arithmetic uses decimal SI units throughout (1 GB = 1e9
// bytes, 1 month = 30 days) and normalizes every Amazon rate to a
// per-second / per-byte granularity.  This package pins those conventions
// in one place so that every cost in the repository reproduces the
// paper's numbers (e.g. 12 TB x $0.15/GB-month = $1,800/month).
package units

import (
	"fmt"
	"math"
)

// Decimal SI byte sizes, as used by the paper (1 GB = 1e9 bytes).
const (
	KB float64 = 1e3
	MB float64 = 1e6
	GB float64 = 1e9
	TB float64 = 1e12
)

// Time conversions used when normalizing monthly or hourly rates.
const (
	SecondsPerHour  float64 = 3600
	HoursPerMonth   float64 = 24 * 30 // the paper's 30-day month
	SecondsPerMonth float64 = SecondsPerHour * HoursPerMonth
)

// Bytes is a size in bytes. Sizes are int64 so that storage accounting is
// exact; derived quantities (costs, GB-hours) convert to float64.
type Bytes int64

// GB returns the size in decimal gigabytes.
func (b Bytes) GB() float64 { return float64(b) / GB }

// String renders the size with a human-friendly decimal SI suffix.
func (b Bytes) String() string {
	v := float64(b)
	switch {
	case math.Abs(v) >= TB:
		return fmt.Sprintf("%.3f TB", v/TB)
	case math.Abs(v) >= GB:
		return fmt.Sprintf("%.3f GB", v/GB)
	case math.Abs(v) >= MB:
		return fmt.Sprintf("%.2f MB", v/MB)
	case math.Abs(v) >= KB:
		return fmt.Sprintf("%.1f kB", v/KB)
	default:
		return fmt.Sprintf("%d B", int64(b))
	}
}

// BytesOf converts a float64 byte count to Bytes, rounding to nearest.
func BytesOf(v float64) Bytes { return Bytes(math.Round(v)) }

// Duration is a simulated time span in seconds.  The simulator uses
// float64 seconds rather than time.Duration because workloads span tens
// of simulated hours and rates are defined per second.
type Duration float64

// Hours returns the duration in hours.
func (d Duration) Hours() float64 { return float64(d) / SecondsPerHour }

// Seconds returns the duration in seconds.
func (d Duration) Seconds() float64 { return float64(d) }

// String renders the duration in the most natural unit.
func (d Duration) String() string {
	s := float64(d)
	switch {
	case math.Abs(s) >= SecondsPerHour:
		return fmt.Sprintf("%.2f h", s/SecondsPerHour)
	case math.Abs(s) >= 60:
		return fmt.Sprintf("%.1f min", s/60)
	default:
		return fmt.Sprintf("%.1f s", s)
	}
}

// Money is an amount in US dollars.  Costs in the paper are reported in
// dollars and cents; float64 precision is ample for the magnitudes here
// (the largest figure in the paper is ~$35k).
type Money float64

// Dollars returns the amount as a float64 dollar value.
func (m Money) Dollars() float64 { return float64(m) }

// String renders the amount as dollars with four significant decimals so
// that sub-cent per-request costs stay visible.
func (m Money) String() string {
	if math.Abs(float64(m)) >= 1 {
		return fmt.Sprintf("$%.2f", float64(m))
	}
	return fmt.Sprintf("$%.4f", float64(m))
}

// Bandwidth is a transfer rate in bytes per second.
type Bandwidth float64

// Mbps constructs a Bandwidth from megabits per second, the unit the
// paper uses for the user-to-cloud link (10 Mbps).
func Mbps(v float64) Bandwidth { return Bandwidth(v * 1e6 / 8) }

// BytesPerSecond returns the rate in bytes per second.
func (bw Bandwidth) BytesPerSecond() float64 { return float64(bw) }

// TransferTime returns how long moving n bytes takes at this rate.
func (bw Bandwidth) TransferTime(n Bytes) Duration {
	if bw <= 0 {
		return 0
	}
	return Duration(float64(n) / float64(bw))
}

// String renders the rate in Mbps, matching the paper's notation.
func (bw Bandwidth) String() string {
	return fmt.Sprintf("%.1f Mbps", float64(bw)*8/1e6)
}

// GBHours converts a byte-seconds integral (the area under a storage
// usage curve) into GB-hours, the storage metric reported in Figs. 7-9.
func GBHours(byteSeconds float64) float64 {
	return byteSeconds / GB / SecondsPerHour
}

// GBMonths converts a byte-seconds integral into GB-months, the unit the
// storage rate is quoted in ($0.15 per GB-month).
func GBMonths(byteSeconds float64) float64 {
	return byteSeconds / GB / SecondsPerMonth
}
