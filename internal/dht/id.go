// Package dht implements the distributed hash table of §4.1: a
// Chord-style ring that stores each file's index entry together with its
// owners' signed EvaluationInfo records, so publishing, updating and
// retrieving evaluations piggybacks on the index operations the system
// performs anyway ("the system will not need more lookup messages when a
// user publishes and retrieves a file's evaluation with this file's index
// information").
//
// The ring uses 64-bit identifiers (SHA-1 truncated), successor lists for
// fault tolerance, finger tables for O(log N) lookups, and periodic
// stabilisation. Two transports are provided: a deterministic in-memory
// network for simulation and tests, and a TCP transport of fixed binary
// frames (stdlib only) for real deployments.
package dht

import (
	"crypto/sha1"
	"encoding/binary"
	"strconv"
)

// ID is a position on the 2^64 ring.
type ID uint64

// Bits is the ring's identifier width; finger tables have one entry per
// bit.
const Bits = 64

// HashKey maps an arbitrary string key (a content hash, a node address)
// onto the ring.
func HashKey(s string) ID {
	sum := sha1.Sum([]byte(s))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// Between reports whether id lies in the half-open ring interval (a, b].
// When a == b the interval spans the whole ring (a single-node ring owns
// everything).
func Between(id, a, b ID) bool {
	if a == b {
		return true
	}
	if a < b {
		return a < id && id <= b
	}
	// Interval wraps zero.
	return id > a || id <= b
}

// BetweenOpen reports whether id lies in the open ring interval (a, b).
func BetweenOpen(id, a, b ID) bool {
	if a == b {
		return id != a
	}
	if a < b {
		return a < id && id < b
	}
	return id > a || id < b
}

// fingerStart returns the i-th finger's target: self + 2^i (mod 2^64).
func fingerStart(self ID, i int) ID {
	return self + ID(1)<<uint(i)
}

// String renders the ID as fixed-width hex for logs.
func (id ID) String() string {
	const hexDigits = 16
	s := strconv.FormatUint(uint64(id), 16)
	for len(s) < hexDigits {
		s = "0" + s
	}
	return s
}

// NodeRef identifies a DHT node: its ring position and transport address.
type NodeRef struct {
	ID   ID     `json:"id"`
	Addr string `json:"addr"`
}

// IsZero reports whether the ref is unset.
func (r NodeRef) IsZero() bool { return r.Addr == "" }

// RefFromAddr derives a node's ring position from its address.
func RefFromAddr(addr string) NodeRef {
	return NodeRef{ID: HashKey(addr), Addr: addr}
}
