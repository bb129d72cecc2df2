package cloudsim

import (
	"fmt"

	"repro/internal/units"
)

// Direction labels a transfer relative to the cloud, matching Amazon's
// asymmetric fee schedule (data in vs. data out).
type Direction int

const (
	// In is user/archive -> cloud storage.
	In Direction = iota
	// Out is cloud storage -> user.
	Out
)

// String returns "in" or "out".
func (d Direction) String() string {
	if d == In {
		return "in"
	}
	return "out"
}

// Link is the fixed-bandwidth connection between the user and the cloud
// storage resource (10 Mbps in the paper).  Transfers are serialized
// FIFO: the link is a single shared pipe, so a transfer requested while
// another is in flight starts when the pipe frees up.  This matches the
// paper's single-user, single-resource setup.
type Link struct {
	bw     units.Bandwidth
	freeAt units.Duration

	bytesIn  units.Bytes
	bytesOut units.Bytes
}

// NewLink returns a link with the given bandwidth.
func NewLink(bw units.Bandwidth) (*Link, error) {
	if bw <= 0 {
		return nil, fmt.Errorf("cloudsim: non-positive bandwidth %v", bw)
	}
	return &Link{bw: bw}, nil
}

// Reserve books a transfer of size bytes in the given direction, at or
// after now, and returns its start and completion times.  Accounting
// (bytes moved per direction) happens immediately; the caller schedules
// whatever should occur at the completion time.
func (l *Link) Reserve(now units.Duration, size units.Bytes, dir Direction) (start, end units.Duration, err error) {
	if size < 0 {
		return 0, 0, fmt.Errorf("cloudsim: negative transfer size %d", size)
	}
	start = now
	if l.freeAt > start {
		start = l.freeAt
	}
	end = start + l.bw.TransferTime(size)
	l.freeAt = end
	switch dir {
	case In:
		l.bytesIn += size
	case Out:
		l.bytesOut += size
	default:
		return 0, 0, fmt.Errorf("cloudsim: unknown direction %d", dir)
	}
	return start, end, nil
}

// Record books a transfer that does not contend for the shared pipe: it
// starts immediately and proceeds at the full link bandwidth, modeling an
// independent stream (the paper's remote-I/O tasks each open their own
// connection to the user; only the bulk stage-in/stage-out of the
// Regular/Cleanup models is a single serialized stream).  Byte accounting
// is identical to Reserve.
func (l *Link) Record(now units.Duration, size units.Bytes, dir Direction) (start, end units.Duration, err error) {
	if size < 0 {
		return 0, 0, fmt.Errorf("cloudsim: negative transfer size %d", size)
	}
	end = now + l.bw.TransferTime(size)
	switch dir {
	case In:
		l.bytesIn += size
	case Out:
		l.bytesOut += size
	default:
		return 0, 0, fmt.Errorf("cloudsim: unknown direction %d", dir)
	}
	return now, end, nil
}

// FreeAt returns the earliest time a new transfer could start.
func (l *Link) FreeAt() units.Duration { return l.freeAt }

// BytesIn returns total bytes moved into the cloud.
func (l *Link) BytesIn() units.Bytes { return l.bytesIn }

// BytesOut returns total bytes moved out of the cloud.
func (l *Link) BytesOut() units.Bytes { return l.bytesOut }
