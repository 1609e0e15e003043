package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mdrep/internal/eval"
	"mdrep/internal/sparse"
)

// Engine is the reputation system state for a population of peers indexed
// [0, n). It ingests the observable behaviour of §3.1 — file evaluations,
// download volumes and user ratings — and produces trust matrices and
// reputations.
//
// Engine is the evidence store and the row math of the trust core. It
// caches nothing: BuildTM computes every row of FM, DM and UM through
// the row functions (fmRow, dmRow, umRow) and integrates them with the
// Eq. (7) kernel. Sharded keeps its evidence in an Engine and rebuilds
// only the rows events dirtied, through the same functions and the same
// kernel, so the bare Engine is the from-scratch reference that the
// shard-count invariance tests and the journal recovery ground truths
// compare against.
//
// The Engine is not safe for concurrent use. Share reputation state
// through Sharded.
type Engine struct {
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
	// evaluators is the inverted index file → peers with a live
	// evaluation; it keeps FM construction proportional to actual
	// co-evaluation instead of O(n²). The index is stripe-locked so the
	// sharded facade's per-shard writers can share it.
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

// NewEngine builds an engine for n peers.
func NewEngine(n int, cfg Config) (*Engine, error) {
	if n < 1 {
		return nil, fmt.Errorf("core: population %d, want >= 1", n)
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{
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

// N returns the population size.
func (e *Engine) N() int { return e.n }

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

func (e *Engine) checkPeer(p int) error {
	if p < 0 || p >= e.n {
		return fmt.Errorf("core: peer %d outside [0, %d)", p, e.n)
	}
	return nil
}

func (e *Engine) indexEvaluator(f eval.FileID, p int) {
	e.evaluators.add(f, p)
}

// --- dirty-row rules --------------------------------------------------------

// Dimension discriminators for markFunc callbacks.
const (
	dimFM = iota
	dimDM
	dimUM
)

// markFunc receives the invalidation effects of an evidence mutation:
// dimension dim's row must be recomputed before the next build.
// core.Sharded routes marks to the owning shard's dirty tracker; the
// bare Engine, which caches nothing, drops them. A markFunc may be
// called under an index stripe lock and must not acquire shard data
// locks.
type markFunc func(dim int, row int)

// dirtyEvaluationTo records that peer p's evaluation of file f changed:
// p's DM row re-weights (Eq. 4 uses E_ik), and the FM rows of every
// co-evaluator of f shift (FT is pairwise over shared files, and the
// deterministic evaluator sample of a capped file can change membership).
func (e *Engine) dirtyEvaluationTo(p int, f eval.FileID, mark markFunc) {
	mark(dimDM, p)
	mark(dimFM, p)
	e.evaluators.forEachPeer(f, func(j int) { mark(dimFM, j) })
}

// --- row construction -------------------------------------------------------

// fileEvaluators is the per-build memo of one file's live, deterministically
// sampled evaluator list: peers ascending, values parallel.
type fileEvaluators struct {
	peers []int
	vals  []float64
}

// liveEvaluators computes (and memoises) file f's live evaluators at now,
// sorted by peer index and strided down to the MaxEvaluatorsPerFile cap —
// exactly the list the reference full rebuild pairs up, so per-row
// recomputation reproduces its float arithmetic bit for bit.
func (e *Engine) liveEvaluators(f eval.FileID, now time.Duration, memo map[eval.FileID]*fileEvaluators) *fileEvaluators {
	if fe, ok := memo[f]; ok {
		return fe
	}
	var live []int
	var vals []float64
	e.evaluators.forEachPeer(f, func(p int) {
		if v, ok := e.stores[p].Get(f, now); ok {
			live = append(live, p)
			vals = append(vals, v)
		}
	})
	sort.Sort(&evaluatorsByPeer{peers: live, vals: vals})
	if maxEval := e.cfg.MaxEvaluatorsPerFile; maxEval > 0 && len(live) > maxEval {
		// Deterministic sample: keep a strided subset of the ordered
		// evaluators so the kept set is stable across rebuilds and spans
		// the index range.
		stride := float64(len(live)) / float64(maxEval)
		for k := 0; k < maxEval; k++ {
			i := int(float64(k) * stride)
			live[k], vals[k] = live[i], vals[i]
		}
		live, vals = live[:maxEval], vals[:maxEval]
	}
	fe := &fileEvaluators{peers: live, vals: vals}
	memo[f] = fe
	return fe
}

// pairScratch is one rebuild worker's dense FM pair accumulator: per
// co-evaluator j the running Σ|E_ik − E_jk| and the co-evaluated count,
// with a generation-stamped touched set, so clearing between rows costs
// O(co-evaluators), not O(n). It is n wide: allocate one per worker and
// rebuild, never per row block.
type pairScratch struct {
	sum     []float64
	count   []int32
	stamp   []uint32
	gen     uint32
	touched []int32
}

func newPairScratch(n int) *pairScratch {
	return &pairScratch{sum: make([]float64, n), count: make([]int32, n), stamp: make([]uint32, n)}
}

// fmRow computes row i of FM (Eqs. 2–3) as a frozen, normalised row:
// FT_ij = 1 − (1/m)·Σ_{k∈F} |E_ik − E_jk| over the co-evaluated set F,
// kept where positive, then divided by the row sum. Files iterate in
// ascending FileID order, so each pair's sum accumulates in the order the
// reference full rebuild uses, and the normalisation runs over ascending
// columns: the row is bit-identical to buildFMRef's.
func (e *Engine) fmRow(i int, now time.Duration, memo map[eval.FileID]*fileEvaluators, sc *pairScratch) sparse.Row {
	sc.gen++
	sc.touched = sc.touched[:0]
	for _, f := range e.stores[i].Files(now) {
		fe := e.liveEvaluators(f, now, memo)
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
func (e *Engine) dmRow(i int, now time.Duration) sparse.Row {
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
func (e *Engine) umRow(i int) sparse.Row {
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

// rowFunc returns dimension d's row function at now for one rebuild
// worker. Each worker needs its own: FM's evaluator memo and pair
// scratch are not safe for concurrent use.
func (e *Engine) rowFunc(d int, now time.Duration) func(i int) sparse.Row {
	switch d {
	case dimFM:
		memo := make(map[eval.FileID]*fileEvaluators)
		sc := newPairScratch(e.n)
		return func(i int) sparse.Row { return e.fmRow(i, now, memo, sc) }
	case dimDM:
		return func(i int) sparse.Row { return e.dmRow(i, now) }
	default:
		return func(i int) sparse.Row { return e.umRow(i) }
	}
}

// integrate is Eq. (7), TM = α·FM + β·DM + γ·UM, recomputed in the rows
// listed in dirty (ascending) and copied from prev in every other row.
func (e *Engine) integrate(prev *sparse.CSR, dirty []int, dims [3][]sparse.Row) (*sparse.CSR, error) {
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

// allRows lists [0, n): the dirty set of a full build.
func allRows(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// --- public build API -------------------------------------------------------

// SetImplicit records peer p's implicit (retention-derived) evaluation of
// file f.
func (e *Engine) SetImplicit(p int, f eval.FileID, value float64, now time.Duration) error {
	return e.ApplyEvent(Event{Kind: EventSetImplicit, I: p, File: f, Value: value, Time: now})
}

// ObserveRetention records an implicit evaluation computed from the
// configured retention model.
func (e *Engine) ObserveRetention(p int, f eval.FileID, retention time.Duration, deleted bool, now time.Duration) error {
	return e.SetImplicit(p, f, e.cfg.Retention.Implicit(retention, deleted), now)
}

// Vote records peer p's explicit evaluation of file f.
func (e *Engine) Vote(p int, f eval.FileID, value float64, now time.Duration) error {
	return e.ApplyEvent(Event{Kind: EventVote, I: p, File: f, Value: value, Time: now})
}

// Evaluation returns peer p's blended evaluation of f, if live.
func (e *Engine) Evaluation(p int, f eval.FileID, now time.Duration) (float64, bool) {
	if e.checkPeer(p) != nil {
		return 0, false
	}
	return e.stores[p].Get(f, now)
}

// RecordDownload registers that downloader fetched file f (size bytes)
// from uploader; it feeds VD of Eq. (4). The evaluation weight E_ik is
// resolved lazily when DM is built, so a later vote or retention update
// retroactively re-weights the volume — sharing a file the downloader
// ends up judging fake earns no download-volume trust.
func (e *Engine) RecordDownload(downloader, uploader int, f eval.FileID, size int64, now time.Duration) error {
	return e.ApplyEvent(Event{Kind: EventDownload, I: downloader, J: uploader, File: f, Size: size, Time: now})
}

// RateUser records UT_ij = value (Eq. 6). Blacklisted targets stay at
// zero.
func (e *Engine) RateUser(i, j int, value float64) error {
	return e.ApplyEvent(Event{Kind: EventRateUser, I: i, J: j, Value: value})
}

// AddFriend assigns the configured friend-list trust to j (§3.1.3).
func (e *Engine) AddFriend(i, j int) error {
	return e.RateUser(i, j, e.cfg.FriendTrust)
}

// Blacklist sets UT_ij to zero permanently for i's view of j (§3.1.3:
// "the users in the blacklist … should be assigned with zero").
func (e *Engine) Blacklist(i, j int) error {
	return e.ApplyEvent(Event{Kind: EventBlacklist, I: i, J: j})
}

// BuildTM builds the one-step direct trust matrix of Eq. (7) from
// scratch at now: every row of FM, DM and UM, integrated by the kernel
// Sharded patches its TM with. Rows of TM are sub-stochastic when a peer
// lacks one of the dimensions; that is intentional — missing evidence
// must not be re-weighted into false confidence.
func (e *Engine) BuildTM(now time.Duration) (*sparse.CSR, error) {
	var dims [3][]sparse.Row
	for d := range dims {
		rowFn := e.rowFunc(d, now)
		dims[d] = make([]sparse.Row, e.n)
		for i := range dims[d] {
			dims[d][i] = rowFn(i)
		}
	}
	return e.integrate(nil, allRows(e.n), dims)
}

// BuildRM computes the full reputation matrix RM = TM^n (Eq. 8).
func (e *Engine) BuildRM(now time.Duration) (*sparse.CSR, error) {
	tm, err := e.BuildTM(now)
	if err != nil {
		return nil, err
	}
	return tm.Pow(e.cfg.Steps)
}

// Reputations returns row i of RM — peer i's multi-trust reputation view
// of every other peer — without materialising the full power.
func (e *Engine) Reputations(i int, now time.Duration) (map[int]float64, error) {
	if err := e.checkPeer(i); err != nil {
		return nil, err
	}
	tm, err := e.BuildTM(now)
	if err != nil {
		return nil, err
	}
	return tm.RowVecPow(i, e.cfg.Steps)
}

// ReputationsFromTM is Reputations against a prebuilt TM, letting callers
// amortise matrix construction across many queries.
func (e *Engine) ReputationsFromTM(tm *sparse.CSR, i int) (map[int]float64, error) {
	if err := e.checkPeer(i); err != nil {
		return nil, err
	}
	return tm.RowVecPow(i, e.cfg.Steps)
}

// Compact drops expired evaluations from every store and prunes the
// inverted index; call periodically in long simulations. Compaction is an
// event because it changes state: a journaled engine must replay it at
// the same point in the sequence to reproduce the same matrices.
func (e *Engine) Compact(now time.Duration) {
	_ = e.ApplyEvent(Event{Kind: EventCompact, Time: now})
}

// compactEvidence drops expired evaluations of the peers selected by owns
// (nil = all) and prunes their index entries. Removal changes liveness
// for builds at any time (including earlier ones the build-time expiry
// scan will not cover), so every record compaction drops invalidates its
// dependent rows up front, through mark. Restricting by owner makes
// compaction decomposable per shard: a global EventCompact is exactly the
// union of per-shard compactions, in any order, because each peer's
// records and index entries are touched by exactly one owner.
func (e *Engine) compactEvidence(now time.Duration, owns func(p int) bool, mark markFunc) {
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

// evaluatorsByPeer sorts parallel (peer, value) slices by peer index.
type evaluatorsByPeer struct {
	peers []int
	vals  []float64
}

func (s *evaluatorsByPeer) Len() int           { return len(s.peers) }
func (s *evaluatorsByPeer) Less(i, j int) bool { return s.peers[i] < s.peers[j] }
func (s *evaluatorsByPeer) Swap(i, j int) {
	s.peers[i], s.peers[j] = s.peers[j], s.peers[i]
	s.vals[i], s.vals[j] = s.vals[j], s.vals[i]
}
