// Package walk estimates multi-trust reputations RM_i· = (TM^n)_i· by
// seeded Monte-Carlo random walks instead of the exact matrix power,
// following the random-walk trust ranking of Stannat & Pouwelse and the
// probabilistic reading of EigenTrust: a row-normalized trust matrix is a
// transition kernel, so the endpoint distribution of depth-n walks started
// at user i *is* row i of TM^n. Each of W walks starts at the source and
// steps n times through rows fetched from a RowSource — a local frozen
// snapshot, or per-user records retrieved through the Chord DHT — and the
// estimate is endpoint visit counts divided by W. A walk that reaches a
// dangling user (an empty row) dies and contributes nothing, which is
// exactly the mass TM^n loses through that row. The walks advance level
// by level: before each step the estimator fetches every row the live
// walks need that it has not fetched yet, once each, then steps all
// walks in parallel over the fetched rows.
//
// Determinism contract: walk w draws from the splitmix64 substream
// sim.RNG.At(w) of the estimator seed, one draw per level; endpoints are
// counted as integers after the last level, and the final division by W
// is per-entry — so the estimate is byte-identical for a fixed
// (source, seed, walks, depth) at any GOMAXPROCS and across reruns, the
// same contract the exact kernels honour. Rows are requested in a fixed
// order (level by level, ascending user within a level, one call at a
// time), so a source that injects faults in call order fails the same
// way on every run. Row *content* must be identical
// across sources for the estimates to match; the DHT source guarantees
// this by fetching the same wire-encoded rows a LocalSource reads from
// the snapshot directly.
package walk

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"mdrep/internal/fault"
	"mdrep/internal/obs"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
)

// Causal-tracing span names and attribute keys (const table per the
// metriclabel analyzer's span-attribute contract).
const (
	spanEstimate = "walk.estimate"
	spanRowFetch = "walk.row_fetch"

	attrUser   = "user"
	attrSource = "source"
	attrWalks  = "walks"
)

// RowSource supplies normalized trust-matrix rows. Implementations must
// be safe for concurrent use; the returned slices are read-only and must
// stay valid for the duration of the estimate.
type RowSource interface {
	// N is the matrix dimension (the user-ID space).
	N() int
	// Row returns user's outgoing trust row: ascending column indices
	// and matching transition weights summing to at most 1. An empty
	// row is a dangling user, not an error; errors mean the row could
	// not be obtained (and carry the internal/fault taxonomy). The span
	// context is the estimate's causal trace; sources that fetch over
	// the network continue it, local sources ignore it.
	Row(sc obs.SpanContext, user int) (cols []int32, vals []float64, err error)
}

// LocalSource serves rows from a frozen sparse.CSR snapshot — typically
// core.Sharded.TM(now), whose rows already sum to at most 1. It is the
// exact-kernel twin the DHT source is cross-validated against.
type LocalSource struct {
	tm *sparse.CSR
}

// NewLocalSource wraps a frozen row-normalized matrix.
func NewLocalSource(tm *sparse.CSR) (*LocalSource, error) {
	if tm == nil {
		return nil, fault.Terminal(errors.New("walk: nil trust matrix"))
	}
	return &LocalSource{tm: tm}, nil
}

// N implements RowSource.
func (s *LocalSource) N() int { return s.tm.N() }

// Row implements RowSource; the slices alias the snapshot's storage.
//
//mdrep:hotpath
func (s *LocalSource) Row(_ obs.SpanContext, user int) ([]int32, []float64, error) {
	if user < 0 || user >= s.tm.N() {
		return nil, nil, fault.Terminal(fmt.Errorf("walk: user %d outside [0, %d)", user, s.tm.N()))
	}
	cols, vals := s.tm.Row(user)
	return cols, vals, nil
}

var _ RowSource = (*LocalSource)(nil)

// Config tunes one estimator.
type Config struct {
	// Walks is the number of independent walks W; the standard error of
	// each estimated entry shrinks as 1/sqrt(W).
	Walks int
	// Depth is the multi-trust depth n of Eq. (8) — the exact answer the
	// estimate converges to is RowVecPow(source, Depth).
	Depth int
	// Seed derives every walk's RNG substream.
	Seed uint64
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Walks < 1 {
		return fault.Terminal(fmt.Errorf("walk: need at least 1 walk, got %d", c.Walks))
	}
	if c.Depth < 1 {
		return fault.Terminal(fmt.Errorf("walk: need depth >= 1, got %d", c.Depth))
	}
	return nil
}

// Estimator runs seeded walk ensembles against one RowSource.
type Estimator struct {
	src RowSource
	cfg Config
}

// New builds an estimator.
func New(src RowSource, cfg Config) (*Estimator, error) {
	if src == nil {
		return nil, fault.Terminal(errors.New("walk: nil row source"))
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Estimator{src: src, cfg: cfg}, nil
}

// Estimate returns the walk estimate of RM_source· as a sparse
// column→value map (entries with zero visit count are omitted). A row
// fetch failure aborts the whole estimate with the underlying
// fault-classified error — a partial ensemble must never masquerade as a
// converged estimate.
func (e *Estimator) Estimate(source int) (map[int]float64, error) {
	n := e.src.N()
	if source < 0 || source >= n {
		return nil, fault.Terminal(fmt.Errorf("walk: source %d outside [0, %d)", source, n))
	}
	wo := wobs.Load()
	sp := wo.spanEstimate()
	tsp := obs.StartRoot(spanEstimate)
	tsp.Attr(attrSource, int64(source))
	tsp.Attr(attrWalks, int64(e.cfg.Walks))
	ws := getWalkState(e.cfg.Walks, n)
	defer putWalkState(ws)
	steps, err := e.walkLevels(tsp.Context(), source, ws)
	ends := ws.cur
	died := uint64(0)
	for _, u := range ends {
		if u < 0 {
			died++
		}
	}
	wo.addWalkWork(uint64(e.cfg.Walks), steps, died)
	sp.End()
	if err != nil {
		wo.countAborted()
		tsp.EndErr(err)
		return nil, err
	}
	wo.countEstimate()
	tsp.End()
	counts := make([]int64, n)
	for _, u := range ends {
		if u >= 0 {
			counts[u]++
		}
	}
	out := make(map[int]float64)
	total := float64(e.cfg.Walks)
	for j, c := range counts {
		if c > 0 {
			out[j] = float64(c) / total
		}
	}
	return out, nil
}

// walkLevels advances every walk from source one level at a time,
// leaving in ws.cur the user each walk ends on (-1 once it died), and
// returns the number of steps sampled. Before each level it fetches the
// rows of the users live walks stand on that no earlier level fetched:
// once each, in ascending user order, on the calling goroutine. That
// fixed call order keeps a source whose faults are drawn in call order
// (chaos.Chaos) reproducible at any GOMAXPROCS. The walks then step in
// parallel over the fetched rows, each drawing from its own RNG
// substream, so an endpoint depends only on the walk's seed and the
// rows. A failed fetch aborts at its level, naming the lowest failing
// user; no deeper row is fetched.
func (e *Estimator) walkLevels(sc obs.SpanContext, source int, ws *walkState) (steps uint64, err error) {
	base := sim.NewRNG(e.cfg.Seed).DeriveStream("walk")
	cur, rngs, slot := ws.cur, ws.rngs, ws.slot
	for w := range cur {
		cur[w] = int32(source)
		rngs[w] = base.At(uint64(w))
	}
	for d := 0; d < e.cfg.Depth; d++ {
		fresh := ws.fresh[:0]
		live := uint64(0)
		for _, u := range cur {
			if u < 0 {
				continue
			}
			live++
			if slot[u] == 0 {
				slot[u] = -1 // queued for this level's fetch
				fresh = append(fresh, u)
			}
		}
		slices.Sort(fresh)
		ws.fresh = fresh
		for _, u := range fresh {
			cols, vals, err := e.src.Row(sc, int(u))
			if err != nil {
				return steps, fmt.Errorf("walk: step %d at user %d: %w", d, u, err)
			}
			ws.rows = append(ws.rows, sparse.Row{Cols: cols, Vals: vals})
			slot[u] = int32(len(ws.rows))
		}
		steps += live
		rows := ws.rows
		parallelWalkBlocks(len(cur), func(lo, hi int) {
			stepWalks(cur[lo:hi], rngs[lo:hi], slot, rows)
		})
	}
	return steps, nil
}

// walkState is one estimate's working memory: per walk the user it
// stands on (-1 once it died) and its RNG, and per user a row slot —
// slot[u] is 1 + the index of u's row in rows, 0 while unfetched. At
// 4,000 walks over 2,000 users it is 56 KB, several times what an
// estimate returns, so it is pooled across estimates: allocated per
// estimate instead, it raised walk-dht's peak RSS by 2–22% over six
// 20 s runs on a 2-vCPU host.
type walkState struct {
	cur   []int32
	rngs  []sim.RNG
	slot  []int32
	rows  []sparse.Row
	fresh []int32
}

var walkStates = sync.Pool{New: func() any { return new(walkState) }}

// getWalkState returns a pooled walkState sized for walks walks over n
// users, with every slot empty.
func getWalkState(walks, n int) *walkState {
	ws := walkStates.Get().(*walkState)
	ws.cur = slices.Grow(ws.cur[:0], walks)[:walks]
	ws.rngs = slices.Grow(ws.rngs[:0], walks)[:walks]
	ws.slot = slices.Grow(ws.slot[:0], n)[:n]
	clear(ws.slot)
	return ws
}

// putWalkState returns ws to the pool, dropping its references to the
// source's rows.
func putWalkState(ws *walkState) {
	clear(ws.rows)
	ws.rows = ws.rows[:0]
	walkStates.Put(ws)
}

// stepWalks takes one step of every live walk in cur over the fetched
// rows, drawing from each walk's own RNG.
//
//mdrep:hotpath
func stepWalks(cur []int32, rngs []sim.RNG, slot []int32, rows []sparse.Row) {
	for w, u := range cur {
		if u >= 0 {
			r := rows[slot[u]-1]
			cur[w] = stepFrom(r.Cols, r.Vals, rngs[w].Float64())
		}
	}
}

// stepFrom inverse-transform samples the next hop from a normalized row:
// the cumulative sum runs in ascending column order (the same order every
// exact kernel accumulates in), and a draw beyond the row's total mass —
// an empty row, or a row summing below 1 — kills the walk.
//
//mdrep:hotpath
func stepFrom(cols []int32, vals []float64, u float64) int32 {
	acc := 0.0
	for k, v := range vals {
		acc += v
		if u < acc {
			return cols[k]
		}
	}
	return -1
}

// walkBlock is the scheduling granule: coarse enough to amortise the
// atomic cursor, fine enough to balance workers.
const walkBlock = 256

// parallelWalkBlocks runs fn over walk indices [0, walks) in disjoint
// blocks across GOMAXPROCS workers, mirroring the sparse kernels' pool,
// and returns once every block is done. Each walk index is processed
// exactly once and owns its own RNG substream, so the result is
// scheduling-independent.
func parallelWalkBlocks(walks int, fn func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if walks <= walkBlock || workers <= 1 {
		fn(0, walks)
		return
	}
	if max := (walks + walkBlock - 1) / walkBlock; workers > max {
		workers = max
	}
	var next int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&next, walkBlock)) - walkBlock
				if lo >= walks {
					return
				}
				hi := lo + walkBlock
				if hi > walks {
					hi = walks
				}
				fn(lo, hi)
			}
		}()
	}
	wg.Wait()
}

// MaxAbsError returns the largest |est - exact| over the union support of
// the two maps. Keys are visited in ascending order so the scan is
// deterministic.
func MaxAbsError(est, exact map[int]float64) float64 {
	max := 0.0
	for _, j := range unionKeys(est, exact) {
		d := est[j] - exact[j]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// MeanAbsError returns the mean |est - exact| over the union support.
func MeanAbsError(est, exact map[int]float64) float64 {
	keys := unionKeys(est, exact)
	if len(keys) == 0 {
		return 0
	}
	sum := 0.0
	for _, j := range keys {
		d := est[j] - exact[j]
		if d < 0 {
			d = -d
		}
		sum += d
	}
	return sum / float64(len(keys))
}

// TopKOverlap returns how many of the exact top-k users (by value, ties
// broken by ascending index) also appear in the estimate's top-k.
func TopKOverlap(est, exact map[int]float64, k int) int {
	estTop := topK(est, k)
	overlap := 0
	for j := range topK(exact, k) {
		if _, ok := estTop[j]; ok {
			overlap++
		}
	}
	return overlap
}

// topK returns the k highest-valued keys as a set, with the value-desc,
// index-asc order making the cut deterministic.
func topK(m map[int]float64, k int) map[int]struct{} {
	keys := sortedKeys(m)
	type kv struct {
		j int
		v float64
	}
	best := make([]kv, 0, k+1)
	for _, j := range keys {
		e := kv{j: j, v: m[j]}
		pos := len(best)
		for pos > 0 && (best[pos-1].v < e.v) {
			pos--
		}
		if pos >= k {
			continue
		}
		best = append(best, kv{})
		copy(best[pos+1:], best[pos:])
		best[pos] = e
		if len(best) > k {
			best = best[:k]
		}
	}
	out := make(map[int]struct{}, len(best))
	for _, e := range best {
		out[e.j] = struct{}{}
	}
	return out
}

// unionKeys returns the sorted union of both maps' keys.
func unionKeys(a, b map[int]float64) []int {
	seen := make(map[int]struct{}, len(a)+len(b))
	for j := range a {
		seen[j] = struct{}{}
	}
	for j := range b {
		seen[j] = struct{}{}
	}
	keys := make([]int, 0, len(seen))
	for j := range seen {
		keys = append(keys, j)
	}
	slices.Sort(keys)
	return keys
}

// sortedKeys returns m's keys ascending.
func sortedKeys(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for j := range m {
		keys = append(keys, j)
	}
	slices.Sort(keys)
	return keys
}
