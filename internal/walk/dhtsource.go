package walk

import (
	"container/list"
	"encoding/base64"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"mdrep/internal/dht"
	"mdrep/internal/eval"
	"mdrep/internal/fault"
	"mdrep/internal/identity"
	"mdrep/internal/obs"
	"mdrep/internal/sparse"
	"mdrep/internal/wire"
)

// rowKeyPrefix names and versions the DHT keyspace TM rows live in; the
// key of user u's row is HashKey(rowKeyPrefix + u).
const rowKeyPrefix = "mdrep/tmrow/v1/"

// RowOwner is the OwnerID every TM-row record is published under. Row
// records are snapshot artifacts of the walk subsystem, not per-peer
// evaluations, so they share one synthetic owner: Storage's
// (key, owner) merge then makes republication supersede by epoch.
const RowOwner identity.PeerID = "walk/tm"

// rowPayloadPrefix marks an Info.FileID as carrying a TM-row payload.
const rowPayloadPrefix = "tmrow:"

// RowKey is the ring position of user's TM row.
func RowKey(user int) dht.ID {
	return dht.HashKey(rowKeyPrefix + strconv.Itoa(user))
}

// RowRecord wraps an encoded TM row as a publishable DHT record. The
// binary row is base64-coded into the FileID field — the one payload
// slot §4.1 records carry that survives both the in-memory and the
// JSON TCP transports — and the snapshot epoch doubles as the record
// timestamp so Storage's newest-wins merge prefers fresher snapshots.
func RowRecord(r *wire.TMRow) (dht.StoredRecord, error) {
	raw, err := wire.EncodeTMRow(r)
	if err != nil {
		return dht.StoredRecord{}, err
	}
	return dht.StoredRecord{
		Key: RowKey(int(r.User)),
		Info: eval.Info{
			FileID:    eval.FileID(rowPayloadPrefix + base64.RawStdEncoding.EncodeToString(raw)),
			OwnerID:   RowOwner,
			Timestamp: time.Duration(r.Epoch),
		},
	}, nil
}

// DecodeRowRecord recovers the TM row carried by a record produced by
// RowRecord. A malformed payload is terminal — re-fetching the same
// corrupt record cannot help.
func DecodeRowRecord(rec dht.StoredRecord) (*wire.TMRow, error) {
	payload, ok := strings.CutPrefix(string(rec.Info.FileID), rowPayloadPrefix)
	if !ok {
		return nil, fault.Terminal(fmt.Errorf("walk: record %q is not a TM row", rec.Info.FileID))
	}
	raw, err := base64.RawStdEncoding.DecodeString(payload)
	if err != nil {
		return nil, fault.Terminal(fmt.Errorf("walk: TM row payload: %w", err))
	}
	row, err := wire.DecodeTMRow(raw)
	if err != nil {
		return nil, fault.Terminal(fmt.Errorf("walk: TM row payload: %w", err))
	}
	return row, nil
}

// RowPublisher publishes records to the DHT; *dht.Node implements it.
type RowPublisher interface {
	Publish(recs []dht.StoredRecord) error
}

// PublishRows publishes every row of a frozen normalized snapshot —
// dangling users included, as explicitly empty records, so a fetcher can
// tell "trusts nobody" from "record lost". Rows are published one per
// call in ascending user order to keep routing deterministic.
func PublishRows(pub RowPublisher, tm *sparse.CSR, epoch uint64) error {
	if pub == nil {
		return fault.Terminal(fmt.Errorf("walk: nil publisher"))
	}
	if tm == nil {
		return fault.Terminal(fmt.Errorf("walk: nil trust matrix"))
	}
	n := tm.N()
	for user := 0; user < n; user++ {
		// RowCopy, not Row: the record (and its TMRow) may outlive this
		// loop in caller hands, so it must not alias the snapshot.
		cols, vals := tm.RowCopy(user)
		rec, err := RowRecord(&wire.TMRow{
			User:  int32(user),
			N:     int32(n),
			Epoch: epoch,
			Cols:  cols,
			Vals:  vals,
		})
		if err != nil {
			return fmt.Errorf("walk: encode row %d: %w", user, err)
		}
		if err := pub.Publish([]dht.StoredRecord{rec}); err != nil {
			return fmt.Errorf("walk: publish row %d: %w", user, err)
		}
	}
	return nil
}

// Fetcher retrieves the records stored under a key; *dht.Node implements
// it (with dht.RetryClient underneath when the ring is built on one).
// The span context carries the walk estimate's trace into the DHT.
type Fetcher interface {
	Retrieve(sc obs.SpanContext, key dht.ID) ([]dht.StoredRecord, error)
}

// DHTSource serves TM rows fetched through the DHT, the decentralized
// twin of LocalSource. The estimator asks it for each distinct row once
// per estimate, level by level in ascending user order, one call at a
// time. That fixed order keeps a fault schedule drawn in call order
// (chaos.Chaos) reproducible, and the estimate's bytes then depend only
// on row *content*, which the epoch pin keeps stable. Fetches are
// deliberately not concurrent: on a 2-vCPU host, 2 to 16 fetches in
// flight per level were no faster than one (the ring's nodes share the
// same CPUs), 16 in flight opened extra TCP connections, and any
// concurrency made a chaos run's fault schedule differ between runs.
// The mutex guards an LRU row cache, which now serves only repeat
// estimates within one epoch (SetEpoch empties it); with one caller at a
// time it is never contended.
type DHTSource struct {
	fetcher Fetcher
	n       int
	epoch   uint64

	mu    sync.Mutex
	cap   int
	cache map[int]*list.Element // user → entry
	order *list.List            // front = most recently used
}

type cacheEntry struct {
	user int
	cols []int32
	vals []float64
}

// DefaultRowCache is the row-cache capacity when the caller passes 0.
const DefaultRowCache = 1024

// NewDHTSource builds a source over n users pinned to one snapshot
// epoch. A fetched row from any other epoch is treated as not-yet-
// republished (retryable), never silently substituted: mixing epochs
// would make the estimate diverge from every exact snapshot.
func NewDHTSource(fetcher Fetcher, n int, cacheCap int, epoch uint64) (*DHTSource, error) {
	if fetcher == nil {
		return nil, fault.Terminal(fmt.Errorf("walk: nil fetcher"))
	}
	if n < 1 {
		return nil, fault.Terminal(fmt.Errorf("walk: need at least 1 user, got %d", n))
	}
	if cacheCap <= 0 {
		cacheCap = DefaultRowCache
	}
	return &DHTSource{
		fetcher: fetcher,
		n:       n,
		epoch:   epoch,
		cap:     cacheCap,
		cache:   make(map[int]*list.Element, cacheCap),
		order:   list.New(),
	}, nil
}

// N implements RowSource.
func (s *DHTSource) N() int { return s.n }

// SetEpoch repins the source to a new snapshot epoch and drops every
// cached row — entries from the old snapshot must not leak into
// estimates against the new one.
func (s *DHTSource) SetEpoch(epoch uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.epoch = epoch
	s.cache = make(map[int]*list.Element, s.cap)
	s.order.Init()
	wobs.Load().setCacheSize(0)
}

// Row implements RowSource. A missing or stale-epoch record is
// fault.Unreachable — republication repairs it, so retrying is sound. A
// record that decodes to the wrong shape is fault.Terminal. A transport
// error keeps whatever fault class the retry layer assigned it.
func (s *DHTSource) Row(sc obs.SpanContext, user int) ([]int32, []float64, error) {
	if user < 0 || user >= s.n {
		return nil, nil, fault.Terminal(fmt.Errorf("walk: user %d outside [0, %d)", user, s.n))
	}
	wo := wobs.Load()
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.cache[user]; ok {
		wo.countHit()
		s.order.MoveToFront(el)
		e := el.Value.(*cacheEntry)
		return e.cols, e.vals, nil
	}
	wo.countMiss()
	cols, vals, err := s.fetchRow(sc, user, wo)
	if err != nil {
		wo.countFetchErr()
		return nil, nil, err
	}
	s.cache[user] = s.order.PushFront(&cacheEntry{user: user, cols: cols, vals: vals})
	if s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.cache, oldest.Value.(*cacheEntry).user)
		wo.countEvicted()
	}
	wo.setCacheSize(s.order.Len())
	return cols, vals, nil
}

// fetchRow retrieves, selects, and decodes user's row record — a
// "walk.row_fetch" span on the estimate's trace, parenting the DHT
// retrieve and its retry attempts. Called with the cache mutex held.
func (s *DHTSource) fetchRow(sc obs.SpanContext, user int, wo *walkObs) (cols []int32, vals []float64, err error) {
	sp := wo.spanFetch()
	tsp := obs.StartChild(sc, spanRowFetch)
	tsp.Attr(attrUser, int64(user))
	defer func() { tsp.EndErr(err) }()
	recs, err := s.fetcher.Retrieve(tsp.Context(), RowKey(user))
	sp.End()
	if err != nil {
		return nil, nil, fmt.Errorf("walk: fetch row %d: %w", user, err)
	}
	best, found := dht.StoredRecord{}, false
	for _, rec := range recs {
		if rec.Info.OwnerID != RowOwner {
			continue
		}
		if !found || rec.Info.Timestamp > best.Info.Timestamp {
			best, found = rec, true
		}
	}
	if !found {
		return nil, nil, fault.Unreachable(fmt.Errorf("walk: row %d not found", user))
	}
	row, err := DecodeRowRecord(best)
	if err != nil {
		return nil, nil, fmt.Errorf("walk: row %d: %w", user, err)
	}
	if row.Epoch != s.epoch {
		return nil, nil, fault.Unreachable(fmt.Errorf("walk: row %d at epoch %d, want %d", user, row.Epoch, s.epoch))
	}
	if int(row.User) != user || int(row.N) != s.n {
		return nil, nil, fault.Terminal(fmt.Errorf("walk: row record (user %d, n %d) under key of user %d of %d", row.User, row.N, user, s.n))
	}
	return row.Cols, row.Vals, nil
}

var _ RowSource = (*DHTSource)(nil)
