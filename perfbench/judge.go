package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"

	"mdrep/internal/core"
	"mdrep/internal/dht"
	"mdrep/internal/eval"
	"mdrep/internal/identity"
	"mdrep/internal/metrics"
	"mdrep/internal/obs"
	"mdrep/internal/peer"
	"mdrep/internal/sim"
)

// judge-tcp: each op is one §4.1 judgement of a file before download.
// The judge retrieves the file's signed EvaluationInfo records from its
// home DHT node, syncs the evaluation list of every record owner over
// the TCP exchange, and computes R_f (Eq. 9) with JudgeFile.
const (
	judgeNodes     = 8
	judgeOwners    = 32
	judgeFiles     = 256
	ownersPerFile  = 6
	judgeHomeIndex = 0
)

type judgeBench struct {
	e        *env
	ring     *ring
	dir      *identity.Directory
	ids      []*identity.Identity // owners, then the judge
	owners   []*peer.Peer
	servers  []*peer.ExchangeServer
	judge    *peer.Peer
	files    []eval.FileID
	quality  []float64     // per file: the value honest votes scatter around
	byFile   [][]eval.Info // published records per file, sorted by owner
	order    []int         // op i judges file order[i mod judgeFiles]
	exchange *metrics.Registry

	// op state
	file     int
	recs     []dht.StoredRecord
	verdict  core.Judgement
	opFiles  []int // file of each noted op
	verdicts []core.Judgement
	badRecs  int // ops whose retrieved records differ from the published ones
}

func setupJudge(e *env) (instance, error) {
	b := &judgeBench{e: e, dir: identity.NewDirectory()}
	rng := sim.NewRNG(mix(e.seed, "judge", 0))
	for i := 0; i <= judgeOwners; i++ {
		id, err := identity.Generate(identity.NewDeterministicReader(mix(e.seed, "judge/identity", uint64(i))))
		if err != nil {
			return nil, err
		}
		if _, err := b.dir.Register(id.PublicKey()); err != nil {
			return nil, err
		}
		b.ids = append(b.ids, id)
	}
	for f := 0; f < judgeFiles; f++ {
		b.files = append(b.files, eval.FileID(fmt.Sprintf("%016x", rng.Uint64())))
		b.quality = append(b.quality, rng.Float64())
	}
	// A balanced design: file f's owners are six consecutive entries of
	// a seeded peer permutation, so every owner holds exactly 48 files
	// and serves a list of the same size.
	b.order = rng.Perm(judgeFiles)
	perm := rng.Perm(judgeOwners)
	owned := make([][]int, judgeOwners)
	for f := 0; f < judgeFiles; f++ {
		for j := 0; j < ownersPerFile; j++ {
			o := perm[(f*ownersPerFile+j)%judgeOwners]
			owned[o] = append(owned[o], f)
		}
	}

	ok := false
	defer func() {
		if !ok {
			_ = b.close()
		}
	}()
	resolver := peer.NewStaticResolver()
	for o := 0; o < judgeOwners; o++ {
		p, err := peer.New(b.ids[o], b.dir, peer.NewExchange(), peer.DefaultConfig())
		if err != nil {
			return nil, err
		}
		for _, f := range owned[o] {
			p.Vote(b.files[f], vote(rng, b.quality[f]))
		}
		b.owners = append(b.owners, p)
		srv, err := peer.ServeExchange("127.0.0.1:0", b.source(p))
		if err != nil {
			return nil, err
		}
		b.servers = append(b.servers, srv)
		resolver.Set(p.ID(), srv.Addr())
	}

	r, err := startRing(ringAddrs(e.seed, judgeNodes), func() *dht.Storage { return dht.NewStorage(0, b.dir) }, ringClient(e.tr))
	if err != nil {
		return nil, err
	}
	b.ring = r

	// Every owner publishes its file index entries from its own home
	// node; replicas verify each signature on the way in (§4.2).
	b.byFile = make([][]eval.Info, judgeFiles)
	index := make(map[eval.FileID]int, judgeFiles)
	for f, id := range b.files {
		index[id] = f
	}
	for o, p := range b.owners {
		infos, err := p.SignedEvaluations()
		if err != nil {
			return nil, err
		}
		recs := make([]dht.StoredRecord, len(infos))
		for k, in := range infos {
			recs[k] = dht.StoredRecord{Key: dht.HashKey(string(in.FileID)), Info: in}
			f := index[in.FileID]
			b.byFile[f] = append(b.byFile[f], in)
		}
		node := r.nodes[o%judgeNodes]
		if _, err := timed(e.tr, kDHTPublish, func() (struct{}, error) { return struct{}{}, node.Publish(recs) }); err != nil {
			return nil, fmt.Errorf("publish owner %d: %w", o, err)
		}
	}
	for _, infos := range b.byFile {
		sort.Slice(infos, func(x, y int) bool { return infos[x].OwnerID < infos[y].OwnerID })
	}

	var network peer.Network = peer.NewTCPExchange(resolver)
	if e.tr != nil {
		b.exchange = metrics.NewRegistry()
		tcp := peer.NewTCPExchange(resolver)
		tcp.Instrument(peer.NewExchangeObs(b.exchange))
		network = tracedNetwork{inner: tcp, tr: e.tr}
	}
	judge, err := b.newJudge(network)
	if err != nil {
		return nil, err
	}
	b.judge = judge
	ok = true
	return b, nil
}

// vote scatters an owner's evaluation around the file's quality.
func vote(rng *sim.RNG, quality float64) float64 {
	return math.Min(1, math.Max(0, quality+0.2*(rng.Float64()-0.5)))
}

// newJudge builds the judging peer over network: it votes on every file
// (so it shares files with every owner) and syncs every owner once, so
// the input to TrustRow is complete before the first op.
func (b *judgeBench) newJudge(network peer.Network) (*peer.Peer, error) {
	judge, err := peer.New(b.ids[judgeOwners], b.dir, network, peer.DefaultConfig())
	if err != nil {
		return nil, err
	}
	rng := sim.NewRNG(mix(b.e.seed, "judge/votes", 0))
	for f, id := range b.files {
		judge.Vote(id, vote(rng, b.quality[f]))
	}
	for _, p := range b.owners {
		if _, err := judge.SyncPeer(p.ID()); err != nil {
			return nil, fmt.Errorf("initial sync of %s: %w", p.ID(), err)
		}
	}
	return judge, nil
}

// source is the exchange server's list source: the owner's freshly
// signed evaluation list, timed and counted when traced.
func (b *judgeBench) source(p *peer.Peer) func() ([]eval.Info, error) {
	tr := b.e.tr
	if tr == nil {
		return p.SignedEvaluations
	}
	return func() ([]eval.Info, error) {
		infos, err := timed(tr, kPeerServe, p.SignedEvaluations)
		if tr.enabled() {
			tr.count(cSigns, len(infos))
		}
		return infos, err
	}
}

func (b *judgeBench) prepare(i int) {
	b.file = b.order[i%judgeFiles]
}

func (b *judgeBench) run() error {
	tr := b.e.tr
	key := dht.HashKey(string(b.files[b.file]))
	home := b.ring.nodes[judgeHomeIndex]
	recs, err := timed(tr, kDHTRetrieve, func() ([]dht.StoredRecord, error) { return home.Retrieve(obs.SpanContext{}, key) })
	if err != nil {
		return err
	}
	b.recs = recs
	infos := make([]eval.Info, len(recs))
	for k, r := range recs {
		infos[k] = r.Info
		if _, err := timed(tr, kPeerSync, func() (int, error) { return b.judge.SyncPeer(r.Info.OwnerID) }); err != nil {
			return err
		}
	}
	v, err := timed(tr, kPeerJudge, func() (core.Judgement, error) { return b.judge.JudgeFile(infos) })
	if tr.enabled() {
		tr.count(cVerifies, inRange(infos))
	}
	b.verdict = v
	return err
}

func (b *judgeBench) note(i int) {
	if !sameRecords(b.recs, b.byFile[b.file]) {
		b.badRecs++
	}
	b.opFiles = append(b.opFiles, b.file)
	b.verdicts = append(b.verdicts, b.verdict)
}

// check judges every file an op judged again, on an in-memory twin: a
// judge with the same identity and votes whose exchange is
// peer.NewExchange over the same owner peers, fed the published records
// rather than the DHT's. Known and Fake must match the twin's exactly and
// R_f to rfTolerance; the retrieved records must match the published ones
// bit for bit. R_f is not compared bit for bit because peer.TrustRow sums
// floats in map order: one peer judging the same records twice can
// differ in the last bit or two. How many ops were bit-equal anyway is
// reported in the detail line.
func (b *judgeBench) check() (int, string, error) {
	ex := peer.NewExchange()
	for _, p := range b.owners {
		ex.Register(p)
	}
	twin, err := b.newJudge(ex)
	if err != nil {
		return 0, "", err
	}
	want := make(map[int]core.Judgement)
	failed, bitEqual := b.badRecs, 0
	for k, f := range b.opFiles {
		w, seen := want[f]
		if !seen {
			if w, err = twin.JudgeFile(b.byFile[f]); err != nil {
				return 0, "", err
			}
			want[f] = w
		}
		got := b.verdicts[k]
		if math.Float64bits(got.Reputation) == math.Float64bits(w.Reputation) {
			bitEqual++
		}
		if math.Abs(got.Reputation-w.Reputation) > rfTolerance*math.Abs(w.Reputation) || got.Known != w.Known || got.Fake != w.Fake {
			failed++
		}
	}
	n := len(b.opFiles)
	detail := fmt.Sprintf("records equal to the published ones on %d/%d ops; verdict equal to the in-memory twin on %d/%d (R_f bit-equal on %d/%d)",
		n-b.badRecs, n, n-failed+b.badRecs, n, bitEqual, n)
	return failed, detail, nil
}

// rfTolerance is the relative difference in R_f the oracle accepts: about
// 4,500 float64 ulps, far above reordering noise and far below any change
// in the records or trust values behind it.
const rfTolerance = 1e-12

func (b *judgeBench) counters() map[string]float64 {
	c := map[string]float64{ctrLookupHops: b.ring.lookupHops()}
	if b.exchange != nil {
		c[ctrFrameBytes] = float64(b.exchange.Counter("peer_exchange_bytes_total", "dir", "in").Load())
	}
	return c
}

func (b *judgeBench) close() error {
	for _, s := range b.servers {
		_ = s.Close()
	}
	if b.ring != nil {
		b.ring.close()
	}
	return nil
}

// sameRecords reports whether the DHT returned exactly the published
// records, signatures included.
func sameRecords(got []dht.StoredRecord, want []eval.Info) bool {
	if len(got) != len(want) {
		return false
	}
	for k, r := range got {
		w := want[k]
		in := r.Info
		if in.FileID != w.FileID || in.OwnerID != w.OwnerID || in.Timestamp != w.Timestamp ||
			math.Float64bits(in.Evaluation) != math.Float64bits(w.Evaluation) || !bytes.Equal(in.Signature, w.Signature) {
			return false
		}
	}
	return true
}

// inRange counts the records JudgeFile verifies: those whose evaluation
// lies in [0, 1].
func inRange(infos []eval.Info) int {
	n := 0
	for _, in := range infos {
		if in.Evaluation >= 0 && in.Evaluation <= 1 {
			n++
		}
	}
	return n
}

// tracedNetwork times the judge's evaluation fetches and counts the
// signatures SyncPeer will verify: every fetched entry the target owns
// whose evaluation is in range.
type tracedNetwork struct {
	inner peer.Network
	tr    *tracer
}

func (n tracedNetwork) FetchEvaluations(sc obs.SpanContext, target identity.PeerID) ([]eval.Info, error) {
	infos, err := timed(n.tr, kPeerFetch, func() ([]eval.Info, error) { return n.inner.FetchEvaluations(sc, target) })
	if n.tr.enabled() {
		v := 0
		for _, in := range infos {
			if in.OwnerID == target && in.Evaluation >= 0 && in.Evaluation <= 1 {
				v++
			}
		}
		n.tr.count(cVerifies, v)
	}
	return infos, err
}
