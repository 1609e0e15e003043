package sim

import (
	"sort"
	"testing"
	"time"
)

// TestWheelMatchesReference drives the wheel and a sorted-slice reference
// queue with an identical randomized schedule — including items inserted
// mid-drain — and requires identical pop order. This pins the wheel to
// (tick, insertion sequence) order across level boundaries, cascades
// and overflow jumps.
func TestWheelMatchesReference(t *testing.T) {
	type ref struct {
		at  uint64 // ticks
		seq int
	}
	const tick = time.Millisecond

	for seed := uint64(1); seed <= 5; seed++ {
		w, err := NewWheel[int](nil, tick)
		if err != nil {
			t.Fatal(err)
		}
		rng := NewRNG(seed)
		var queue []ref
		var popped, expected []int
		seq := 0
		now := uint64(0)

		schedule := func(horizonTicks uint64, n int) {
			for i := 0; i < n; i++ {
				// Mix of near, far, very far (overflow) and past times.
				var at uint64
				switch rng.Intn(10) {
				case 0:
					at = now // immediate
				case 1, 2, 3, 4:
					at = now + uint64(rng.Intn(int(horizonTicks)))
				case 5, 6, 7:
					at = now + uint64(rng.Intn(1<<18))
				case 8:
					at = now + uint64(rng.Intn(1<<26))
				default:
					at = now + wheelSpan + uint64(rng.Intn(1<<20)) // overflow
				}
				w.Schedule(time.Duration(at)*tick, seq)
				queue = append(queue, ref{at: at, seq: seq})
				seq++
			}
		}

		schedule(1024, 200)
		for len(queue) > 0 {
			sort.SliceStable(queue, func(i, j int) bool {
				if queue[i].at != queue[j].at {
					return queue[i].at < queue[j].at
				}
				return queue[i].seq < queue[j].seq
			})
			nowT, got, ok := w.Next()
			if !ok {
				t.Fatalf("seed %d: wheel empty with %d reference items left", seed, len(queue))
			}
			want := queue[0]
			queue = queue[1:]
			now = want.at
			if uint64(nowT/tick) != want.at {
				t.Fatalf("seed %d: popped at tick %d, want %d", seed, nowT/tick, want.at)
			}
			popped = append(popped, got)
			expected = append(expected, want.seq)
			// Occasionally schedule more mid-drain, sometimes at the
			// exact current tick to exercise same-tick FIFO.
			if rng.Intn(20) == 0 && seq < 600 {
				schedule(256, 1+rng.Intn(5))
			}
		}
		if _, _, ok := w.Next(); ok {
			t.Fatalf("seed %d: wheel not empty after reference drained", seed)
		}
		for i := range popped {
			if popped[i] != expected[i] {
				t.Fatalf("seed %d: pop %d = item %d, want %d", seed, i, popped[i], expected[i])
			}
		}
		if w.Executed != uint64(len(popped)) {
			t.Fatalf("seed %d: Executed = %d, want %d", seed, w.Executed, len(popped))
		}
	}
}

func TestWheelSameTickFIFO(t *testing.T) {
	w, err := NewWheel[int](nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	at := 42 * time.Second
	for i := 0; i < 10; i++ {
		w.Schedule(at, i)
	}
	for i := 0; i < 10; i++ {
		now, got, ok := w.Next()
		if !ok || got != i || now != at {
			t.Fatalf("pop %d: got (%v, %d, %v)", i, now, got, ok)
		}
	}
}

func TestWheelClampsPast(t *testing.T) {
	w, err := NewWheel[string](nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Schedule(time.Minute, "a")
	if now, _, _ := w.Next(); now != time.Minute {
		t.Fatalf("now = %v, want 1m", now)
	}
	w.Schedule(time.Second, "past") // before current time: runs now
	now, got, ok := w.Next()
	if !ok || got != "past" || now != time.Minute {
		t.Fatalf("past event: got (%v, %q, %v)", now, got, ok)
	}
}

func TestWheelRoundsUpToTick(t *testing.T) {
	w, err := NewWheel[int](nil, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Schedule(1500*time.Millisecond, 1)
	if now, _, _ := w.Next(); now != 2*time.Second {
		t.Fatalf("now = %v, want 2s", now)
	}
}

func TestWheelSparseJumps(t *testing.T) {
	// Events separated by huge empty stretches must still pop in order
	// and quickly (the bitmap scan skips empty time wholesale).
	w, err := NewWheel[int](nil, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	times := []time.Duration{
		time.Millisecond,
		time.Second,
		time.Hour,
		24 * time.Hour,
		30 * 24 * time.Hour,
	}
	for i, at := range times {
		w.Schedule(at, i)
	}
	for i := range times {
		now, got, ok := w.Next()
		if !ok || got != i {
			t.Fatalf("pop %d: got (%v, %d, %v)", i, now, got, ok)
		}
		if now < times[i] {
			t.Fatalf("pop %d: time %v before schedule %v", i, now, times[i])
		}
	}
}

func TestWheelSharedClock(t *testing.T) {
	clock := &Clock{}
	w, err := NewWheel[int](clock, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w.Schedule(5*time.Second, 1)
	if _, _, ok := w.Next(); !ok {
		t.Fatal("empty wheel")
	}
	if clock.Now() != 5*time.Second {
		t.Fatalf("clock = %v, want 5s", clock.Now())
	}
	if w.Clock() != clock {
		t.Fatal("Clock() did not return the attached clock")
	}
}

func TestWheelRejectsBadTick(t *testing.T) {
	if _, err := NewWheel[int](nil, 0); err == nil {
		t.Fatal("want error for zero tick")
	}
	if _, err := NewWheel[int](nil, -time.Second); err == nil {
		t.Fatal("want error for negative tick")
	}
}

func TestRNGValueStreams(t *testing.T) {
	base := NewRNG(7)
	a1 := base.At(1)
	a1b := base.At(1)
	if a1.Uint64() != a1b.Uint64() {
		t.Fatal("At not reproducible")
	}
	a2 := base.At(2)
	a1c := base.At(1)
	if a1c.Uint64() == a2.Uint64() {
		t.Fatal("distinct indices yielded identical first draw")
	}
	s := base.Stream("peers")
	s2 := base.DeriveStream("peers")
	if s.Uint64() != s2.Uint64() {
		t.Fatal("Stream disagrees with DeriveStream")
	}
}
