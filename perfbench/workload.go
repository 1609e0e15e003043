package main

import (
	"encoding/binary"
	"hash/fnv"
)

// workload is one benchmark scenario.
type workload struct {
	name string
	// setup builds the system under test and brings it to the state the
	// first timed op expects. Everything it does is set-up time.
	setup func(e *env) (instance, error)
	// setups is how many times an untraced run builds the system to
	// take the median set-up time; more for a short set-up.
	setups int
	// traceOps is how many ops a traced run traces. A fixed count, not a
	// time budget, so the per-op count metrics repeat exactly for a seed.
	traceOps int
}

// env is what a set-up gets from the harness.
type env struct {
	seed uint64
	dir  string  // scratch directory for this set-up (journals)
	tr   *tracer // nil in untraced runs: no wrappers are installed
}

// instance is a built system ready for ops. Ops are numbered from 0 in
// run order; op i's inputs derive from (seed, i) alone.
type instance interface {
	// prepare builds op i's inputs. Untimed.
	prepare(i int)
	// run performs the prepared op. This is the timed part.
	run() error
	// note keeps what the oracle needs of the op just run. Untimed.
	note(i int)
	// check replays the oracle over every noted op and returns how many
	// outputs differ from it, with a one-line account of what it
	// compared. Untimed; runs after the last op.
	check() (failed int, detail string, err error)
	// counters returns cumulative program-side counts (see the counter
	// keys in trace.go) for the traced run's per-op deltas.
	counters() map[string]float64
	// close stops every server and goroutine the set-up started.
	close() error
}

var workloads = []workload{
	{name: "judge-tcp", setup: setupJudge, setups: 3, traceOps: 120},
	{name: "walk-dht", setup: setupWalk, setups: 3, traceOps: 400},
	{name: "ingest-durable", setup: setupIngest, setups: 5, traceOps: 1000},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// mix derives an independent 64-bit seed from a base seed and a label,
// so each input (ring addresses, identities, op i) has its own stream.
func mix(seed uint64, label string, i uint64) uint64 {
	h := fnv.New64a()
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], seed)
	binary.LittleEndian.PutUint64(b[8:], i)
	_, _ = h.Write(b[:])
	_, _ = h.Write([]byte(label))
	return h.Sum64()
}
