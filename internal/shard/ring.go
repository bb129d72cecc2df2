// Package shard spreads the result-key space across a pool of reprosrv
// replicas: a consistent-hash ring decides which member owns each
// canonical run key, and a small HTTP client relays requests to their
// owners.  Ownership is what makes a pool of replicas behave like one
// big cache -- every distinct scenario has exactly one home, so the
// pool's aggregate memory and disk tiers hold each result once instead
// of once per replica.
//
// The ring is classic consistent hashing with virtual nodes: each
// member contributes Replicas points on a 64-bit circle (the first
// eight bytes of SHA-256("member\x00vnode")), and a key belongs to the
// first point clockwise from the key's own hash.  Adding or removing a
// member therefore moves only ~1/N of the key space, and every replica
// configured with the same member list computes identical ownership --
// there is no coordinator.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
	"strconv"
)

// Replicas is how many virtual nodes each member contributes.  128
// keeps the expected imbalance between members in the low percents
// without making ring construction or lookup noticeable.
const Replicas = 128

// point is one virtual node on the circle.
type point struct {
	hash   uint64
	member int // index into members
}

// Ring is an immutable consistent-hash ring over a member set.  Build
// it once with New; lookups are safe for concurrent use.
type Ring struct {
	members []string
	points  []point
}

// New builds a ring over the member addresses.  Members are deduplicated
// and sorted, so every replica handed the same set -- in any order --
// builds an identical ring.
func New(members []string) (*Ring, error) {
	seen := make(map[string]bool, len(members))
	uniq := make([]string, 0, len(members))
	for _, m := range members {
		if m == "" {
			return nil, fmt.Errorf("shard: empty member address")
		}
		if !seen[m] {
			seen[m] = true
			uniq = append(uniq, m)
		}
	}
	if len(uniq) == 0 {
		return nil, fmt.Errorf("shard: ring needs at least one member")
	}
	sort.Strings(uniq)
	r := &Ring{members: uniq, points: make([]point, 0, len(uniq)*Replicas)}
	for mi, m := range uniq {
		for v := 0; v < Replicas; v++ {
			r.points = append(r.points, point{hash: vnodeHash(m, v), member: mi})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// A full 64-bit collision between vnode hashes is vanishingly
		// rare; break the tie on member index so construction order
		// still cannot influence ownership.
		return r.points[i].member < r.points[j].member
	})
	return r, nil
}

// Members returns the deduplicated, sorted member list.
func (r *Ring) Members() []string { return append([]string(nil), r.members...) }

// Contains reports whether addr is a ring member.
func (r *Ring) Contains(addr string) bool {
	i := sort.SearchStrings(r.members, addr)
	return i < len(r.members) && r.members[i] == addr
}

// Owner maps a key hash (the hex SHA-256 of a canonical run key, as
// produced by store.HashKey) to the member that owns it: the first
// virtual node clockwise from the key's position on the circle.
func (r *Ring) Owner(keyHash string) string {
	h := keyPoint(keyHash)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0 // wrap past the highest point to the circle's start
	}
	return r.members[r.points[i].member]
}

// keyPoint positions a hex key hash on the circle: its first 16 hex
// digits as a big-endian uint64.  A malformed hash (never produced by
// store.HashKey) degrades to position 0 rather than an error -- every
// replica degrades identically, so ownership stays consistent.
func keyPoint(keyHash string) uint64 {
	if len(keyHash) < 16 {
		return 0
	}
	h, err := strconv.ParseUint(keyHash[:16], 16, 64)
	if err != nil {
		return 0
	}
	return h
}

// vnodeHash positions one of a member's virtual nodes on the circle.
func vnodeHash(member string, vnode int) uint64 {
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(vnode))
	h := sha256.New()
	h.Write([]byte(member))
	h.Write([]byte{0})
	h.Write(buf[:])
	var sum [sha256.Size]byte
	return binary.BigEndian.Uint64(h.Sum(sum[:0])[:8])
}
