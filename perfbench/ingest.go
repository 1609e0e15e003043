package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"mdrep/internal/core"
	"mdrep/internal/eval"
	"mdrep/internal/journal"
	"mdrep/internal/metrics"
	"mdrep/internal/sim"
	"mdrep/internal/sparse"
)

// ingest-durable: each op folds one batch of new evidence into TM/RM
// (Eqs. 1–8) durably — journal.ShardedEngine.ApplyBatch with one fsync
// per shard — then rebuilds TM, reads one RM row and judges one file
// (Eq. 9). Events revisit a fixed library of (peer, file) evaluations
// and rating pairs filled in set-up, so they overwrite rather than
// accumulate and the op cost stays flat over a run.
const (
	ingestUsers       = 2000
	ingestShards      = 2
	ingestBatch       = 64
	libraryFiles      = 2000
	filesPerUser      = 4
	downloadsPerUser  = 2
	ratingsPerUser    = 2
	preloadBatch      = 1000
	ingestStartOffset = time.Hour
)

type ingestBench struct {
	e        *env
	eng      *journal.ShardedEngine
	reg      *metrics.Registry // journal observer's registry; nil untraced
	files    []eval.FileID
	quality  []float64
	userLib  [][]int // files each user evaluates
	evalBy   [][]int // users evaluating each file, ascending
	ratedBy  [][]int // users each user rates
	now      time.Duration
	prevTM   *sparse.CSR
	batch    []core.Event
	q, qFile int
	walPre   int64
	snapPre  uint64
	counts   map[string]float64
}

func setupIngest(e *env) (instance, error) {
	b := &ingestBench{e: e, counts: make(map[string]float64)}
	rng := sim.NewRNG(mix(e.seed, "ingest", 0))
	for f := 0; f < libraryFiles; f++ {
		b.files = append(b.files, eval.FileID(fmt.Sprintf("%016x", rng.Uint64())))
		b.quality = append(b.quality, rng.Float64())
	}
	b.userLib = make([][]int, ingestUsers)
	b.evalBy = make([][]int, libraryFiles)
	b.ratedBy = make([][]int, ingestUsers)
	for u := 0; u < ingestUsers; u++ {
		seen := make(map[int]bool, filesPerUser)
		for len(b.userLib[u]) < filesPerUser {
			f := rng.Intn(libraryFiles)
			if !seen[f] {
				seen[f] = true
				b.userLib[u] = append(b.userLib[u], f)
				b.evalBy[f] = append(b.evalBy[f], u)
			}
		}
		for len(b.ratedBy[u]) < ratingsPerUser {
			if v := rng.Intn(ingestUsers); v != u {
				b.ratedBy[u] = append(b.ratedBy[u], v)
			}
		}
	}

	// Preload the library, the download ledger and the ratings through
	// the journal, then close it and reopen: set-up includes recovery.
	t0 := ingestStartOffset
	var events []core.Event
	for u, lib := range b.userLib {
		for k, f := range lib {
			kind := core.EventVote
			if k%2 == 1 {
				kind = core.EventSetImplicit
			}
			events = append(events, core.Event{Kind: kind, I: u, File: b.files[f], Value: b.value(rng, f), Time: t0})
		}
		for k := 0; k < downloadsPerUser; k++ {
			f := lib[rng.Intn(len(lib))]
			up := b.evalBy[f][rng.Intn(len(b.evalBy[f]))]
			if up == u {
				continue
			}
			events = append(events, core.Event{Kind: core.EventDownload, I: u, J: up, File: b.files[f], Size: 1 << 20, Time: t0})
		}
		for _, v := range b.ratedBy[u] {
			events = append(events, core.Event{Kind: core.EventRateUser, I: u, J: v, Value: rng.Float64()})
		}
	}
	eng, err := b.open()
	if err != nil {
		return nil, err
	}
	for lo := 0; lo < len(events); lo += preloadBatch {
		hi := min(lo+preloadBatch, len(events))
		if err := eng.ApplyBatch(events[lo:hi]); err != nil {
			_ = eng.Close()
			return nil, fmt.Errorf("preload: %w", err)
		}
	}
	if err := eng.Close(); err != nil {
		return nil, err
	}
	if b.eng, err = timed(e.tr, kJournalOpen, b.open); err != nil {
		return nil, err
	}
	b.now = t0
	tm, err := b.eng.Core().TM(b.now)
	if err != nil {
		_ = b.eng.Close()
		return nil, err
	}
	b.prevTM = tm
	return b, nil
}

// open opens (or recovers) the sharded journal in the set-up's
// directory; when traced, every shard reports into one journal observer.
func (b *ingestBench) open() (*journal.ShardedEngine, error) {
	var obsFn journal.ShardObsFunc
	if b.e.tr != nil {
		b.reg = metrics.NewRegistry()
		o := journal.NewLogObs(b.reg, nil)
		obsFn = func(int) *journal.LogObs { return o }
	}
	eng, _, err := journal.OpenSharded(b.e.dir, ingestUsers, ingestShards, core.DefaultConfig(), journal.DefaultConfig(), obsFn)
	return eng, err
}

// value scatters an evaluation around the file's quality.
func (b *ingestBench) value(rng *sim.RNG, f int) float64 {
	return math.Min(1, math.Max(0, b.quality[f]+0.2*(rng.Float64()-0.5)))
}

func (b *ingestBench) prepare(i int) {
	rng := sim.NewRNG(mix(b.e.seed, "ingest/op", uint64(i)))
	b.now = ingestStartOffset + time.Duration(i+1)*time.Second
	b.batch = b.batch[:0]
	for k := 0; k < ingestBatch; k++ {
		u := rng.Intn(ingestUsers)
		switch r := rng.Float64(); {
		case r < 0.7:
			f := b.userLib[u][rng.Intn(filesPerUser)]
			b.batch = append(b.batch, core.Event{Kind: core.EventVote, I: u, File: b.files[f], Value: b.value(rng, f), Time: b.now})
		case r < 0.9:
			f := b.userLib[u][rng.Intn(filesPerUser)]
			b.batch = append(b.batch, core.Event{Kind: core.EventSetImplicit, I: u, File: b.files[f], Value: b.value(rng, f), Time: b.now})
		default:
			v := b.ratedBy[u][rng.Intn(ratingsPerUser)]
			b.batch = append(b.batch, core.Event{Kind: core.EventRateUser, I: u, J: v, Value: rng.Float64()})
		}
	}
	b.q = rng.Intn(ingestUsers)
	b.qFile = b.userLib[b.q][rng.Intn(filesPerUser)]
	if b.e.tr != nil {
		b.walPre, b.snapPre = b.walSize(), b.snapshots()
	}
}

func (b *ingestBench) run() error {
	tr := b.e.tr
	if _, err := timed(tr, kJournalApply, func() (struct{}, error) { return struct{}{}, b.eng.ApplyBatch(b.batch) }); err != nil {
		return err
	}
	c := b.eng.Core()
	tm, err := timed(tr, kCoreTM, func() (*sparse.CSR, error) { return c.TM(b.now) })
	if err != nil {
		return err
	}
	if _, err := timed(tr, kCoreRMRow, func() (map[int]float64, error) { return c.ReputationsFromTM(tm, b.q) }); err != nil {
		return err
	}
	_, err = timed(tr, kCoreJudge, func() (core.Judgement, error) {
		owners := c.CollectOwnerEvaluations(b.files[b.qFile], b.evalBy[b.qFile], b.now)
		return c.JudgeFileFromTM(tm, b.q, owners)
	})
	return err
}

// note keeps the traced run's WAL growth and changed-row counts; the
// oracle itself needs nothing per op.
func (b *ingestBench) note(int) {
	if b.e.tr == nil {
		return
	}
	if b.snapshots() == b.snapPre {
		b.counts[ctrWALBytes] += float64(b.walSize() - b.walPre)
		b.counts[ctrWALEvents] += float64(len(b.batch))
	}
	tm, err := b.eng.Core().TM(b.now)
	if err != nil {
		return
	}
	b.counts[ctrDirtyRows] += float64(changedRows(b.prevTM, tm))
	b.prevTM = tm
}

// check closes the journal, recovers the same directory with
// OpenSharded, and requires every recovered TM row to equal the live
// one bit for bit. A mismatch fails every op: none is durable.
func (b *ingestBench) check() (int, string, error) {
	live, err := b.eng.Core().TM(b.now)
	if err != nil {
		return 0, "", err
	}
	if err := b.eng.Close(); err != nil {
		return 0, "", err
	}
	b.eng = nil
	eng, _, err := journal.OpenSharded(b.e.dir, ingestUsers, ingestShards, core.DefaultConfig(), journal.DefaultConfig(), nil)
	if err != nil {
		return 0, "", fmt.Errorf("recover: %w", err)
	}
	b.eng = eng
	got, err := eng.Core().TM(b.now)
	if err != nil {
		return 0, "", err
	}
	failed := 0
	n := changedRows(live, got)
	if n != 0 {
		failed = math.MaxInt32
	}
	return failed, fmt.Sprintf("recovered TM equal to the live one on %d/%d rows", live.N()-n, live.N()), nil
}

// changedRows counts the rows in which two TMs differ.
func changedRows(a, b *sparse.CSR) int {
	n := 0
	for i := 0; i < a.N(); i++ {
		ac, av := a.Row(i)
		bc, bv := b.Row(i)
		if len(ac) != len(bc) {
			n++
			continue
		}
		for k := range ac {
			if ac[k] != bc[k] || math.Float64bits(av[k]) != math.Float64bits(bv[k]) {
				n++
				break
			}
		}
	}
	return n
}

func (b *ingestBench) snapshots() uint64 {
	if b.reg == nil {
		return 0
	}
	return b.reg.Counter("journal_snapshot_total").Load()
}

// walSize sums the sizes of every shard's WAL segments.
func (b *ingestBench) walSize() int64 {
	var total int64
	for si := 0; si < ingestShards; si++ {
		dir := filepath.Join(b.e.dir, fmt.Sprintf("shard-%02d", si))
		entries, err := os.ReadDir(dir)
		if err != nil {
			continue
		}
		for _, ent := range entries {
			if !strings.HasPrefix(ent.Name(), "wal-") {
				continue
			}
			if info, err := ent.Info(); err == nil {
				total += info.Size()
			}
		}
	}
	return total
}

func (b *ingestBench) counters() map[string]float64 {
	c := make(map[string]float64, len(b.counts)+2)
	for k, v := range b.counts {
		c[k] = v
	}
	if b.reg != nil {
		c[ctrFsyncs] = float64(b.reg.Counter("journal_fsync_total").Load())
		c[ctrSnapshots] = float64(b.snapshots())
	}
	return c
}

func (b *ingestBench) close() error {
	if b.eng == nil {
		return nil
	}
	err := b.eng.Close()
	b.eng = nil
	return err
}
