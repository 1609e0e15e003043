// Package sim provides a deterministic discrete-event simulation kernel:
// a virtual clock, a timing-wheel event queue, and seed-derived random
// number streams.
//
// Every stochastic component of the reproduction draws from an RNG stream
// derived from a single experiment seed, so runs are reproducible
// bit-for-bit regardless of goroutine scheduling (the kernel itself is
// single-threaded by design; concurrency lives in the DHT transports, not
// in the simulator).
package sim

import "math"

// RNG is a small, fast, deterministic generator (splitmix64 core with an
// xorshift-style output mix). It intentionally does not wrap math/rand so
// that stream derivation (DeriveStream) is stable across Go releases.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is valid.
func NewRNG(seed uint64) *RNG {
	return &RNG{state: seed + 0x9e3779b97f4a7c15}
}

// DeriveStream returns an independent generator for the named substream.
// Streams derived from the same (seed, name) pair are identical; streams
// with different names are statistically independent.
func (r *RNG) DeriveStream(name string) *RNG {
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return NewRNG(r.state ^ h)
}

// Stream is the value-type form of DeriveStream, for callers that embed
// generators directly in slices — the struct-of-arrays layout of the
// million-peer simulator, where one pointer per peer would double the
// footprint of the RNG state.
func (r *RNG) Stream(name string) RNG {
	return *r.DeriveStream(name)
}

// At returns the i-th indexed substream of r as a value. Substreams with
// different indices are statistically independent; the same (r, i) pair
// always yields the same stream. It does not advance r.
//
//mdrep:hotpath
func (r *RNG) At(i uint64) RNG {
	z := r.state + (i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return RNG{state: z ^ (z >> 31)}
}

// Uint64 returns the next 64 uniformly distributed bits.
//
//mdrep:hotpath
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform value in [0, 1).
//
//mdrep:hotpath
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0, mirroring
// math/rand; callers control n so this is a programming error, not input.
//
//mdrep:hotpath
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a uniform value in [0, n).
//
//mdrep:hotpath
func (r *RNG) Int63n(n int64) int64 {
	if n <= 0 {
		panic("sim: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Perm returns a random permutation of [0, n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		j := r.Intn(i + 1)
		p[i] = p[j]
		p[j] = i
	}
	return p
}

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}

// NormFloat64 returns a normally distributed value (mean 0, stddev 1)
// using the Box-Muller transform.
//
//mdrep:hotpath
func (r *RNG) NormFloat64() float64 {
	for {
		u1 := r.Float64()
		u2 := r.Float64()
		if u1 <= 0 {
			continue
		}
		return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
	}
}

// ExpFloat64 returns an exponentially distributed value with rate 1.
//
//mdrep:hotpath
func (r *RNG) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}
