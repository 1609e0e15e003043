package eval

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"mdrep/internal/identity"
)

func TestBlendValidate(t *testing.T) {
	if err := DefaultBlend().Validate(); err != nil {
		t.Fatalf("DefaultBlend invalid: %v", err)
	}
	bad := []Blend{
		{Eta: 0.5, Rho: 0.6},
		{Eta: -0.1, Rho: 1.1},
		{Eta: 1.2, Rho: -0.2},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Fatalf("blend %+v validated", b)
		}
	}
}

func TestRecordValueUnvotedUsesImplicit(t *testing.T) {
	r := Record{Implicit: 0.7, Explicit: 0.1, Voted: false}
	if got := r.Value(DefaultBlend()); got != 0.7 {
		t.Fatalf("unvoted value = %v, want implicit 0.7", got)
	}
}

func TestRecordValueVotedBlends(t *testing.T) {
	b := Blend{Eta: 0.4, Rho: 0.6}
	r := Record{Implicit: 0.5, Explicit: 1.0, Voted: true}
	want := 0.4*0.5 + 0.6*1.0
	if got := r.Value(b); math.Abs(got-want) > 1e-12 {
		t.Fatalf("voted value = %v, want %v", got, want)
	}
}

func TestRecordValueClamped(t *testing.T) {
	r := Record{Implicit: 5, Voted: false}
	if got := r.Value(DefaultBlend()); got != 1 {
		t.Fatalf("value %v not clamped to 1", got)
	}
	r = Record{Implicit: -3, Voted: false}
	if got := r.Value(DefaultBlend()); got != 0 {
		t.Fatalf("value %v not clamped to 0", got)
	}
}

func TestRetentionModelMonotone(t *testing.T) {
	m := DefaultRetentionModel()
	prev := -1.0
	for h := 0; h <= 24*14; h += 6 {
		v := m.Implicit(time.Duration(h)*time.Hour, false)
		if v < prev {
			t.Fatalf("implicit evaluation decreased at %dh: %v < %v", h, v, prev)
		}
		if v < 0 || v > 1 {
			t.Fatalf("implicit evaluation %v out of range", v)
		}
		prev = v
	}
	if got := m.Implicit(0, false); got != m.Floor {
		t.Fatalf("retention 0 → %v, want floor %v", got, m.Floor)
	}
	if got := m.Implicit(30*24*time.Hour, false); got != 1 {
		t.Fatalf("long retention → %v, want 1", got)
	}
}

func TestRetentionModelDeletion(t *testing.T) {
	m := DefaultRetentionModel()
	immediate := m.Implicit(0, true)
	if immediate != 0 {
		t.Fatalf("immediate deletion → %v, want 0", immediate)
	}
	late := m.Implicit(m.Saturation, true)
	if math.Abs(late-0.5) > 1e-12 {
		t.Fatalf("deletion at saturation → %v, want 0.5", late)
	}
	kept := m.Implicit(m.Saturation, false)
	if late >= kept {
		t.Fatalf("deletion (%v) should score below keeping (%v)", late, kept)
	}
}

func TestRetentionModelZeroSaturation(t *testing.T) {
	m := RetentionModel{Saturation: 0, Floor: 0.3}
	if got := m.Implicit(time.Hour, false); got != 0.3 {
		t.Fatalf("zero-saturation model → %v, want floor", got)
	}
}

func TestStoreVoteAndImplicit(t *testing.T) {
	s, err := NewStore(Blend{Eta: 0.5, Rho: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetImplicit("f1", 0.8, 0)
	v, ok := s.Get("f1", 0)
	if !ok || v != 0.8 {
		t.Fatalf("Get after SetImplicit = %v, %v", v, ok)
	}
	s.Vote("f1", 0.2, time.Second)
	v, ok = s.Get("f1", time.Second)
	want := 0.5*0.8 + 0.5*0.2
	if !ok || math.Abs(v-want) > 1e-12 {
		t.Fatalf("Get after Vote = %v, want %v", v, want)
	}
}

func TestStoreVotePreservedAcrossImplicitUpdate(t *testing.T) {
	s, err := NewStore(Blend{Eta: 0.5, Rho: 0.5}, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Vote("f", 1.0, 0)
	s.SetImplicit("f", 0.0, time.Second)
	r, ok := s.Record("f", time.Second)
	if !ok || !r.Voted || r.Explicit != 1.0 {
		t.Fatalf("vote lost after implicit update: %+v", r)
	}
}

func TestStoreWindowExpiry(t *testing.T) {
	s, err := NewStore(DefaultBlend(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s.SetImplicit("old", 0.9, 0)
	s.SetImplicit("new", 0.9, 2*time.Hour)
	if _, ok := s.Get("old", 2*time.Hour); ok {
		t.Fatal("expired evaluation still readable")
	}
	if _, ok := s.Get("new", 2*time.Hour); !ok {
		t.Fatal("live evaluation not readable")
	}
	if files := s.AppendFiles(nil, 2*time.Hour); len(files) != 1 || files[0] != "new" {
		t.Fatalf("AppendFiles = %v", files)
	}
	if removed := s.Compact(2 * time.Hour); removed != 1 {
		t.Fatalf("Compact removed %d, want 1", removed)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after compact", s.Len())
	}
}

func TestStoreUpdateRefreshesWindow(t *testing.T) {
	s, err := NewStore(DefaultBlend(), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	s.SetImplicit("f", 0.5, 0)
	s.Vote("f", 0.9, 50*time.Minute) // refresh at 50m
	if _, ok := s.Get("f", 100*time.Minute); !ok {
		t.Fatal("refreshed evaluation expired early")
	}
}

func TestStoreForget(t *testing.T) {
	s, err := NewStore(DefaultBlend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetImplicit("f", 0.5, 0)
	s.Forget("f")
	if _, ok := s.Get("f", 0); ok {
		t.Fatal("forgotten evaluation still readable")
	}
}

// TestStoreExpiredMatchesScan checks the expiry queries, which skip
// their scan while the oldest record is inside the window, against a
// brute-force scan of the exported records: after writes at
// non-monotone times, Forget, Compact and Import, with the clock
// stepping 1 s or a whole window at a time.
func TestStoreExpiredMatchesScan(t *testing.T) {
	const window = time.Minute
	for _, step := range []time.Duration{time.Second, window} {
		rng := rand.New(rand.NewSource(int64(step)))
		s, err := NewStore(DefaultBlend(), window)
		if err != nil {
			t.Fatal(err)
		}
		scan := func(prev, now time.Duration) (between, expired []FileID) {
			for f, r := range s.Export() {
				if now-r.UpdatedAt > window {
					expired = append(expired, f)
					if prev < now && prev-r.UpdatedAt <= window {
						between = append(between, f)
					}
				}
			}
			return between, expired
		}
		same := func(a, b []FileID) bool {
			sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
			sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
			return fmt.Sprint(a) == fmt.Sprint(b)
		}
		clock := time.Duration(0)
		for i := 0; i < 600; i++ {
			f := FileID(fmt.Sprintf("f%d", rng.Intn(8)))
			at := clock - time.Duration(rng.Int63n(int64(2*window))) // writes at non-monotone times
			switch rng.Intn(7) {
			case 0:
				s.Vote(f, rng.Float64(), at)
			case 1:
				s.SetImplicit(f, rng.Float64(), at)
			case 2:
				s.Forget(f)
			case 3:
				s.Compact(clock)
			case 4:
				records := s.Export()
				records[f] = Record{Implicit: 0.5, UpdatedAt: at}
				s.Import(records)
			default:
				clock += step
			}
			for _, prev := range []time.Duration{clock - step, clock - 3*step, clock} {
				for _, now := range []time.Duration{clock, clock + step, clock + 2*window} {
					wantBetween, wantExpired := scan(prev, now)
					if got := s.ExpiredBetween(prev, now); !same(got, wantBetween) {
						t.Fatalf("step %v op %d: ExpiredBetween(%v, %v) = %v, want %v", step, i, prev, now, got, wantBetween)
					}
					if got := s.ExpiredFiles(now); !same(got, wantExpired) {
						t.Fatalf("step %v op %d: ExpiredFiles(%v) = %v, want %v", step, i, now, got, wantExpired)
					}
				}
			}
		}
	}
}

// TestStoreAppendFilesReusesBuffer: AppendFiles keeps dst's contents,
// appends the live files in ascending order, and allocates nothing when
// dst has room.
func TestStoreAppendFilesReusesBuffer(t *testing.T) {
	s, err := NewStore(DefaultBlend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []FileID{"c", "a", "b"} {
		s.SetImplicit(f, 0.5, 0)
	}
	buf := append(make([]FileID, 0, 8), "z")
	got := s.AppendFiles(buf, 0)
	if !slices.Equal(got, []FileID{"z", "a", "b", "c"}) || &got[0] != &buf[0] {
		t.Fatalf("AppendFiles = %v (same array: %v)", got, &got[0] == &buf[0])
	}
	if n := testing.AllocsPerRun(10, func() { buf = s.AppendFiles(buf[:0], 0) }); n != 0 {
		t.Fatalf("AppendFiles into a buffer with room: %v allocs", n)
	}
}

func TestStoreSnapshotIsCopy(t *testing.T) {
	s, err := NewStore(DefaultBlend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	s.SetImplicit("f", 0.5, 0)
	snap := s.Snapshot(0)
	snap["f"] = 99
	if v, _ := s.Get("f", 0); v != 0.5 {
		t.Fatal("Snapshot exposed internal state")
	}
}

func TestStoreRejectsBadConfig(t *testing.T) {
	if _, err := NewStore(Blend{Eta: 1, Rho: 1}, 0); err == nil {
		t.Fatal("invalid blend accepted")
	}
	if _, err := NewStore(DefaultBlend(), -time.Second); err == nil {
		t.Fatal("negative window accepted")
	}
}

func TestStoreValuesAlwaysInRange(t *testing.T) {
	s, err := NewStore(DefaultBlend(), 0)
	if err != nil {
		t.Fatal(err)
	}
	f := func(impl, expl float64, voted bool) bool {
		s.SetImplicit("f", impl, 0)
		if voted {
			s.Vote("f", expl, 0)
		} else {
			s.Forget("f")
			s.SetImplicit("f", impl, 0)
		}
		v, ok := s.Get("f", 0)
		return ok && v >= 0 && v <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func newSignedInfo(t *testing.T, seed uint64) (*Info, *identity.Identity, *identity.Directory) {
	t.Helper()
	id, err := identity.Generate(identity.NewDeterministicReader(seed))
	if err != nil {
		t.Fatal(err)
	}
	dir := identity.NewDirectory()
	if _, err := dir.Register(id.PublicKey()); err != nil {
		t.Fatal(err)
	}
	info := &Info{
		FileID:     "abc123",
		OwnerID:    id.ID(),
		Evaluation: 0.85,
		Timestamp:  42 * time.Second,
	}
	if err := info.Sign(id); err != nil {
		t.Fatal(err)
	}
	return info, id, dir
}

func TestInfoSignVerifyRoundTrip(t *testing.T) {
	info, _, dir := newSignedInfo(t, 100)
	if err := info.Verify(dir); err != nil {
		t.Fatalf("valid info rejected: %v", err)
	}
}

func TestInfoVerifyRejectsTampering(t *testing.T) {
	tamper := []func(*Info){
		func(in *Info) { in.Evaluation = 0.1 },
		func(in *Info) { in.FileID = "evil" },
		func(in *Info) { in.Timestamp++ },
	}
	for i, mutate := range tamper {
		info, _, dir := newSignedInfo(t, 200+uint64(i))
		mutate(info)
		if err := info.Verify(dir); err == nil {
			t.Fatalf("tampering %d not detected", i)
		}
	}
}

func TestInfoVerifyRejectsOutOfRange(t *testing.T) {
	info, id, dir := newSignedInfo(t, 300)
	info.Evaluation = 1.5
	// Re-sign so only the range check can fail.
	if err := info.Sign(id); err != nil {
		t.Fatal(err)
	}
	if err := info.Verify(dir); err != ErrOutOfRange {
		t.Fatalf("err = %v, want ErrOutOfRange", err)
	}
}

func TestInfoSignRejectsNonOwner(t *testing.T) {
	info, _, _ := newSignedInfo(t, 400)
	other, err := identity.Generate(identity.NewDeterministicReader(401))
	if err != nil {
		t.Fatal(err)
	}
	if err := info.Sign(other); err == nil {
		t.Fatal("non-owner signature accepted")
	}
}

func TestInfoMarshalRoundTrip(t *testing.T) {
	info, _, dir := newSignedInfo(t, 500)
	data, err := info.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	got, err := UnmarshalInfo(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(dir); err != nil {
		t.Fatalf("round-tripped info failed verification: %v", err)
	}
	if got.FileID != info.FileID || got.Evaluation != info.Evaluation {
		t.Fatalf("round trip changed fields: %+v vs %+v", got, info)
	}
}

func TestUnmarshalInfoRejectsGarbage(t *testing.T) {
	if _, err := UnmarshalInfo([]byte("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
}

// TestVerifyAllMatchesSequential checks VerifyAll's per-index results
// against Info.Verify one record at a time, at several worker counts and
// batch sizes, with forged, unknown-owner and out-of-range records at the
// first and last index and on both sides of every chunk boundary. Then it
// does the same for list-signed groups, whole and not (listCases).
func TestVerifyAllMatchesSequential(t *testing.T) {
	dir := identity.NewDirectory()
	var owners []*identity.Identity
	for seed := uint64(600); seed < 603; seed++ {
		id, err := identity.Generate(identity.NewDeterministicReader(seed))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dir.Register(id.PublicKey()); err != nil {
			t.Fatal(err)
		}
		owners = append(owners, id)
	}
	stranger, err := identity.Generate(identity.NewDeterministicReader(699))
	if err != nil {
		t.Fatal(err)
	}
	sign := func(id *identity.Identity, k int, value float64) Info {
		in := Info{FileID: FileID(fmt.Sprintf("f%03d", k)), OwnerID: id.ID(), Evaluation: value, Timestamp: time.Duration(k)}
		if err := in.Sign(id); err != nil {
			t.Fatal(err)
		}
		return in
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, n := range []int{0, 1, 2, 47, 48, 49, 97} {
		bad := make(map[int]bool)
		if n > 0 {
			bad[0], bad[n-1] = true, true
		}
		for _, workers := range []int{2, 4} {
			for w := 1; w < min(workers, n); w++ {
				start := w * n / min(workers, n)
				bad[start-1], bad[start] = true, true
			}
		}
		infos := make([]Info, n)
		kind := 0
		for k := range infos {
			infos[k] = sign(owners[k%len(owners)], k, float64(k%11)/10)
			if !bad[k] {
				continue
			}
			switch kind % 3 {
			case 0: // forged: altered after signing
				infos[k].Evaluation = math.Mod(infos[k].Evaluation+0.5, 1)
			case 1: // signed by a key the directory does not know
				infos[k] = sign(stranger, k, 0.5)
			case 2: // validly signed but outside [0,1]
				infos[k] = sign(owners[0], k, 1.5)
			}
			kind++
		}
		want := make([]error, n)
		for k := range infos {
			want[k] = infos[k].Verify(dir)
			if (want[k] != nil) != bad[k] {
				t.Fatalf("n=%d: record %d: Verify = %v, bad = %v", n, k, want[k], bad[k])
			}
		}
		for _, procs := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(procs)
			got := VerifyAll(dir, infos)
			if len(got) != n {
				t.Fatalf("n=%d GOMAXPROCS=%d: %d results", n, procs, len(got))
			}
			for k := range got {
				if fmt.Sprint(got[k]) != fmt.Sprint(want[k]) {
					t.Fatalf("n=%d GOMAXPROCS=%d: record %d: VerifyAll = %v, Verify = %v", n, procs, k, got[k], want[k])
				}
			}
		}
	}

	cases := listCases(t, owners, dir)
	all := listCase{name: "every case in one batch", byList: make(map[int]bool)}
	for _, c := range cases {
		for k := range c.infos {
			all.byList[len(all.infos)+k] = c.byList[k]
		}
		all.infos = append(all.infos, c.infos...)
	}
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, c := range append(cases, all) {
			got := VerifyAll(dir, c.infos)
			for k := range c.infos {
				want := c.infos[k].Verify(dir)
				if c.byList[k] {
					want = nil
				}
				if fmt.Sprint(got[k]) != fmt.Sprint(want) {
					t.Fatalf("%s, GOMAXPROCS=%d: record %d: VerifyAll = %v, want %v", c.name, procs, k, got[k], want)
				}
			}
		}
	}
}

// listCase is a batch for VerifyAll. byList marks the records only a
// verified list signature can accept: their own signature is garbage.
type listCase struct {
	name   string
	infos  []Info
	byList map[int]bool
}

// signedList returns id's evaluation list of n files at timestamp ts,
// each record signed and carrying the list signature.
func signedList(t testing.TB, id *identity.Identity, n int, ts time.Duration) []Info {
	t.Helper()
	infos := make([]Info, n)
	for k := range infos {
		infos[k] = Info{FileID: FileID(fmt.Sprintf("list-%02d", k)), OwnerID: id.ID(), Evaluation: float64(k%11) / 10, Timestamp: ts}
		if err := infos[k].Sign(id); err != nil {
			t.Fatal(err)
		}
	}
	ls, err := SignList(id, infos)
	if err != nil {
		t.Fatal(err)
	}
	for k := range infos {
		infos[k].ListSignature = ls
	}
	return infos
}

// listCases builds one batch per way a list-signed group can be whole or
// not. Every case spoils one record's own signature, so whether the list
// check ran shows in the results. Each case has its own timestamp, so
// the cases stay apart when batched together.
func listCases(t *testing.T, owners []*identity.Identity, dir *identity.Directory) []listCase {
	a, b := owners[0], owners[1]
	var cases []listCase
	add := func(name string, infos []Info, spoil int, whole bool) {
		infos[spoil].Signature = bytes.Repeat([]byte{0xa5}, len(infos[spoil].Signature))
		cases = append(cases, listCase{name: name, infos: infos, byList: map[int]bool{spoil: whole}})
	}

	complete := signedList(t, a, 6, 1000)
	add("complete", complete, 2, true)

	// A whole list whose owner signed an evaluation outside [0,1]: the
	// list check passes and the range check still drops that record.
	outOfRange := signedList(t, a, 5, 1001)
	outOfRange[3].Evaluation = 1.5
	if err := outOfRange[3].Sign(a); err != nil {
		t.Fatal(err)
	}
	ls, err := SignList(a, outOfRange)
	if err != nil {
		t.Fatal(err)
	}
	for k := range outOfRange {
		outOfRange[k].ListSignature = ls
	}
	add("complete, one entry out of range", outOfRange, 1, true)

	add("partial", signedList(t, a, 6, 1002)[:4], 0, false)

	tampered := signedList(t, a, 6, 1003)
	tampered[4].Evaluation = math.Mod(tampered[4].Evaluation+0.5, 1)
	add("one entry tampered", tampered, 1, false)

	reordered := signedList(t, a, 6, 1004)
	slices.Reverse(reordered)
	add("reordered", reordered, 5, true)

	repeated := signedList(t, a, 6, 1005)
	repeated[5] = repeated[0]
	add("a repeated file", repeated, 2, false)

	wrongLen := signedList(t, a, 6, 1006)
	sig, _, _ := splitListSignature(wrongLen[0].ListSignature)
	claimed := binary.AppendUvarint(bytes.Clone(sig), 5)
	for k := range wrongLen {
		wrongLen[k].ListSignature = claimed
	}
	add("wrong length", wrongLen, 3, false)

	// b's records carrying the list signature a made over the same files.
	theirs := signedList(t, a, 6, 1007)
	borrowed := signedList(t, b, 6, 1007)
	for k := range borrowed {
		borrowed[k].ListSignature = theirs[0].ListSignature
	}
	add("another owner's list signature", borrowed, 4, false)

	add("a group of one", signedList(t, a, 1, 1008), 0, false)
	add("one record of a list", signedList(t, a, 6, 1009)[2:3], 0, false)

	for _, c := range cases {
		for k := range c.byList {
			if err := c.infos[k].Verify(dir); !errors.Is(err, identity.ErrBadSignature) {
				t.Fatalf("%s: spoiled record %d: Verify = %v, want a bad signature", c.name, k, err)
			}
		}
	}
	return cases
}
