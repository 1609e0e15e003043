package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// engine is the evidence store and the row math of the trust core, for
// a population of peers indexed [0, n). It holds the observable
// behaviour of §3.1 — file evaluations, download volumes and user
// ratings — which Sharded ingests through applyTo, and computes the rows
// of FM, DM and UM through the row functions (fmRow, dmRow, umRow),
// which integrate combines into TM with the Eq. (7) kernel. The
// evaluator index keeps each file's live-evaluator list across
// Sharded's rebuilds.
//
// The engine is not safe for concurrent use: Sharded guards each peer's
// evidence with its owner shard's lock.
type engine struct {
	cfg    Config
	n      int
	stores []*eval.Store
	// downloads[i][j] accumulates the files peer i fetched from peer j
	// (Eq. 4 input). Repeated downloads of the same file count once per
	// occurrence, as in the Maze log.
	downloads []map[int][]Download
	// userTrust[i][j] is UT_ij (Eq. 6 input).
	userTrust []map[int]float64
	// blacklist[i][j] forces UT_ij to zero regardless of later ratings.
	blacklist []map[int]struct{}
	// evaluators is the inverted index file → peers with an
	// evaluation, with each file's kept live-evaluator list; it keeps
	// FM construction proportional to actual co-evaluation instead of
	// O(n²). The index is stripe-locked so Sharded's per-shard writers
	// can share it.
	evaluators *evalIndex
}

// Download is one entry of a download ledger: a file a peer fetched
// from one uploader, and its size in bytes. The engine, the peer daemon
// and their snapshots keep each ledger as a slice of these in event
// order.
type Download struct {
	File eval.FileID `json:"file"`
	Size int64       `json:"size"`
}

// DownloadVolume is VD_ij of Eq. (4) over ledger, the files peer i
// fetched from peer j: Σ_k E_ik·S_k, summed in ledger order, where E_ik
// is i's live evaluation of file k in store at now, and floor stands in
// for a file i has not evaluated. The engine's DM rows and the peer
// daemon's trust row both compute VD here.
func DownloadVolume(ledger []Download, store *eval.Store, now time.Duration, floor float64) float64 {
	vd := 0.0
	for _, d := range ledger {
		ev, ok := store.Get(d.File, now)
		if !ok {
			ev = floor
		}
		vd += ev * float64(d.Size)
	}
	return vd
}

// newEngine builds an empty engine for n peers.
func newEngine(n int, cfg Config) (*engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: population %d, want >= 1", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &engine{
		cfg:        cfg,
		n:          n,
		stores:     make([]*eval.Store, n),
		downloads:  make([]map[int][]Download, n),
		userTrust:  make([]map[int]float64, n),
		blacklist:  make([]map[int]struct{}, n),
		evaluators: newEvalIndex(),
	}
	for i := range e.stores {
		s, err := eval.NewStore(cfg.Blend, cfg.Window)
		if err != nil {
			return nil, err
		}
		e.stores[i] = s
	}
	return e, nil
}

func (e *engine) checkPeer(p int) error {
	if p < 0 || p >= e.n {
		return fmt.Errorf("core: peer %d outside [0, %d)", p, e.n)
	}
	return nil
}

// --- dirty-row rules --------------------------------------------------------

// Dimension discriminators for markFunc callbacks.
const (
	dimFM = iota
	dimDM
	dimUM
)

// markFunc receives the invalidation effects of an evidence mutation:
// dimension dim's row must be recomputed before the next build. Sharded
// routes marks to the owning shard's dirty tracker. A markFunc may be
// called under an index stripe lock and must not acquire shard data
// locks.
type markFunc func(dim int, row int)

// dirtyEvaluationTo records that peer p's evaluation of file f changed:
// p's DM row re-weights (Eq. 4 uses E_ik), f's live-evaluator list is
// stale, and the FM rows of every co-evaluator of f shift (FT is
// pairwise over shared files, and the deterministic evaluator sample of
// a capped file can change membership).
func (e *engine) dirtyEvaluationTo(p int, f eval.FileID, mark markFunc) {
	mark(dimDM, p)
	mark(dimFM, p)
	e.evaluators.dropList(f, func(j int) { mark(dimFM, j) })
}

// --- row construction -------------------------------------------------------

// liveEvaluators returns file f's live evaluators at now, sorted by peer
// index and strided down to the MaxEvaluatorsPerFile cap — exactly the
// list the reference full rebuild pairs up, so per-row recomputation
// reproduces its float arithmetic bit for bit. The index keeps the list
// across builds and derives it here only when it is stale.
func (e *engine) liveEvaluators(f eval.FileID, now time.Duration) fileEvaluators {
	return e.evaluators.list(f, func(peers map[int]struct{}, dst *fileEvaluators) {
		live := dst.peers[:0]
		for p := range peers {
			live = append(live, p)
		}
		slices.Sort(live)
		kept, vals := live[:0], dst.vals[:0]
		for _, p := range live {
			if v, ok := e.stores[p].Get(f, now); ok {
				kept = append(kept, p)
				vals = append(vals, v)
			}
		}
		if maxEval := e.cfg.MaxEvaluatorsPerFile; maxEval > 0 && len(kept) > maxEval {
			// Deterministic sample: keep a strided subset of the ordered
			// evaluators so the kept set is stable across rebuilds and
			// spans the index range.
			stride := float64(len(kept)) / float64(maxEval)
			for k := 0; k < maxEval; k++ {
				i := int(float64(k) * stride)
				kept[k], vals[k] = kept[i], vals[i]
			}
			kept, vals = kept[:maxEval], vals[:maxEval]
		}
		dst.peers, dst.vals = kept, vals
	})
}

// pairScratch is a dense FM pair accumulator: per co-evaluator j the
// running Σ|E_ik − E_jk| and the co-evaluated count, with a
// generation-stamped touched set, so clearing between rows costs
// O(co-evaluators), not O(n). It is n wide: each Sharded rebuild
// worker keeps one across rebuilds.
type pairScratch struct {
	sum     []float64
	count   []int32
	stamp   []uint32
	gen     uint32
	touched []int32
	files   []eval.FileID // the row's live files, ascending
}

func newPairScratch(n int) *pairScratch {
	return &pairScratch{sum: make([]float64, n), count: make([]int32, n), stamp: make([]uint32, n)}
}

// next starts a row. When the generation counter wraps to 0 it clears
// every stamp, so a stamp left 2³² rows ago cannot pass for this row's.
func (sc *pairScratch) next() {
	sc.gen++
	if sc.gen == 0 {
		clear(sc.stamp)
		sc.gen = 1
	}
	sc.touched = sc.touched[:0]
}

// fmRow computes row i of FM (Eqs. 2–3) as a frozen, normalised row:
// FT_ij = 1 − (1/m)·Σ_{k∈F} |E_ik − E_jk| over the co-evaluated set F,
// kept where positive, then divided by the row sum. Files iterate in
// ascending FileID order, so each pair's sum accumulates in the order the
// reference full rebuild uses, and the normalisation runs over ascending
// columns: the row is bit-identical to buildFMRef's.
func (e *engine) fmRow(i int, now time.Duration, sc *pairScratch) sparse.Row {
	sc.next()
	sc.files = e.stores[i].AppendFiles(sc.files[:0], now)
	for _, f := range sc.files {
		fe := e.liveEvaluators(f, now)
		pos := slices.Index(fe.peers, i)
		if pos < 0 {
			continue // i evaluated f but fell out of the deterministic sample
		}
		for idx, j := range fe.peers {
			if j == i {
				continue
			}
			if sc.stamp[j] != sc.gen {
				sc.stamp[j] = sc.gen
				sc.sum[j], sc.count[j] = 0, 0
				sc.touched = append(sc.touched, int32(j))
			}
			sc.sum[j] += math.Abs(fe.vals[pos] - fe.vals[idx])
			sc.count[j]++
		}
	}
	slices.Sort(sc.touched)
	cols := make([]int32, 0, len(sc.touched))
	vals := make([]float64, 0, len(sc.touched))
	for _, j := range sc.touched {
		if ft := 1 - sc.sum[j]/float64(sc.count[j]); ft > 0 {
			cols = append(cols, j)
			vals = append(vals, ft)
		}
	}
	return sparse.NormalizeRow(cols, vals)
}

// dmRow computes row i of DM (Eqs. 4–5) as a frozen, normalised row:
// VD_ij of DownloadVolume, kept where positive, then divided by the row
// sum.
func (e *engine) dmRow(i int, now time.Duration) sparse.Row {
	per := e.downloads[i]
	cols := sortedKeys(per)
	vals := make([]float64, 0, len(cols))
	kept := cols[:0]
	for _, j := range cols {
		if vd := DownloadVolume(per[int(j)], e.stores[i], now, e.cfg.Retention.Floor); vd > 0 {
			kept = append(kept, j)
			vals = append(vals, vd)
		}
	}
	return sparse.NormalizeRow(kept, vals)
}

// umRow computes row i of UM (Eq. 6) as a frozen, normalised row.
func (e *engine) umRow(i int) sparse.Row {
	per := e.userTrust[i]
	cols := sortedKeys(per)
	vals := make([]float64, 0, len(cols))
	kept := cols[:0]
	for _, j := range cols {
		if v := per[int(j)]; v > 0 {
			kept = append(kept, j)
			vals = append(vals, v)
		}
	}
	return sparse.NormalizeRow(kept, vals)
}

// sortedKeys returns a row map's columns ascending.
func sortedKeys[V any](m map[int]V) []int32 {
	out := make([]int32, 0, len(m))
	for j := range m {
		out = append(out, int32(j))
	}
	slices.Sort(out)
	return out
}

// rowFunc returns dimension d's row function at now. FM rows pair up
// in sc, which is not safe for concurrent use: each rebuild worker
// passes its own.
func (e *engine) rowFunc(d int, now time.Duration, sc *pairScratch) func(i int) sparse.Row {
	switch d {
	case dimFM:
		return func(i int) sparse.Row { return e.fmRow(i, now, sc) }
	case dimDM:
		return func(i int) sparse.Row { return e.dmRow(i, now) }
	default:
		return func(i int) sparse.Row { return e.umRow(i) }
	}
}

// integrate is Eq. (7), TM = α·FM + β·DM + γ·UM, recomputed in the rows
// listed in dirty (ascending) and copied from prev in every other row.
func (e *engine) integrate(prev *sparse.CSR, dirty []int, dims [3][]sparse.Row) (*sparse.CSR, error) {
	return sparse.WeightedSum(prev, e.n, dirty, []sparse.Weighted{
		{Scale: e.cfg.Alpha, Rows: dims[dimFM]},
		{Scale: e.cfg.Beta, Rows: dims[dimDM]},
		{Scale: e.cfg.Gamma, Rows: dims[dimUM]},
	})
}

// TrustRow is one row of TM (Eq. 7) from the raw rows of its three
// dimensions: FT, VD and UT over ascending columns, positive values
// only. It normalises each by Eqs. (3), (5) and (6), dividing the raw
// values in place, and integrates them with the per-row kernel of
// integrate, so a row built here has the bits of the same row of TM.
// The peer daemon computes its trust row through it.
func (c Config) TrustRow(ft, vd, ut sparse.Row) sparse.Row {
	return sparse.WeightedRow([]float64{c.Alpha, c.Beta, c.Gamma}, []sparse.Row{
		sparse.NormalizeRow(ft.Cols, ft.Vals),
		sparse.NormalizeRow(vd.Cols, vd.Vals),
		sparse.NormalizeRow(ut.Cols, ut.Vals),
	})
}

// compactEvidence drops expired evaluations of the peers selected by owns
// (nil = all) and prunes their index entries. Removal changes liveness
// for builds at any time (including earlier ones the build-time expiry
// scan will not cover), so every record compaction drops invalidates its
// dependent rows up front, through mark. Restricting by owner makes
// compaction decomposable per shard: a global EventCompact is exactly the
// union of per-shard compactions, in any order, because each peer's
// records and index entries are touched by exactly one owner.
func (e *engine) compactEvidence(now time.Duration, owns func(p int) bool, mark markFunc) {
	for p, s := range e.stores {
		if owns != nil && !owns(p) {
			continue
		}
		for _, f := range s.ExpiredFiles(now) {
			e.dirtyEvaluationTo(p, f, mark)
		}
	}
	for p, s := range e.stores {
		if owns != nil && !owns(p) {
			continue
		}
		s.Compact(now)
	}
	e.evaluators.prune(owns, func(p int, f eval.FileID) bool {
		_, ok := e.stores[p].Get(f, now)
		return !ok
	})
}
