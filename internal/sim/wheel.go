package sim

import (
	"errors"
	"math/bits"
	"time"
)

// The wheel geometry: four levels of 256 slots each. Level 0 resolves
// single ticks; each higher level covers 256x the span of the one below,
// so the wheel spans 2^32 ticks before spilling into the overflow list.
const (
	wheelBits   = 8
	wheelSlots  = 1 << wheelBits
	wheelMask   = wheelSlots - 1
	wheelLevels = 4
	wheelSpan   = uint64(1) << (wheelBits * wheelLevels)
)

type wheelItem[T any] struct {
	at      uint64 // absolute tick
	seq     uint64 // FIFO tie-breaker among items at the same tick
	payload T
}

// Wheel is a hierarchical timing wheel: the event queue of the
// million-peer simulator. It stores plain payload values instead of
// closures (no per-event allocation beyond slot-slice growth) and pops
// in amortised O(1) per event, skipping empty stretches of virtual time
// through per-level occupancy bitmaps instead of ticking through them.
//
// Determinism contract: Next returns items ordered by (tick, insertion
// sequence) — nondecreasing virtual time, FIFO among items scheduled
// for the same tick. The wheel advances the attached virtual Clock as
// it pops and never reads the wall clock.
type Wheel[T any] struct {
	clock *Clock
	tick  time.Duration
	cur   uint64 // current tick; never decreases
	seq   uint64
	count int // scheduled and not yet popped (including pending)
	// Executed counts events returned by Next since construction.
	Executed uint64

	slots [wheelLevels][wheelSlots][]wheelItem[T]
	occ   [wheelLevels][wheelSlots / 64]uint64

	// overflow holds items more than wheelSpan ticks ahead; it is only
	// consulted when every level is empty, so order within it is free.
	overflow []wheelItem[T]

	// pending is the slot currently being drained, sorted by seq.
	pending []wheelItem[T]
	pendIdx int
}

// NewWheel builds a wheel with the given tick granularity that advances
// clock as it pops. A nil clock gets a private one. Scheduling times are
// rounded up to whole ticks, so tick is the simulator's time resolution.
func NewWheel[T any](clock *Clock, tick time.Duration) (*Wheel[T], error) {
	if tick <= 0 {
		return nil, errors.New("sim: non-positive wheel tick")
	}
	if clock == nil {
		clock = &Clock{}
	}
	return &Wheel[T]{clock: clock, tick: tick}, nil
}

// Now returns the current virtual time.
func (w *Wheel[T]) Now() time.Duration { return w.clock.Now() }

// Clock returns the virtual clock the wheel advances.
func (w *Wheel[T]) Clock() *Clock { return w.clock }

// Tick returns the wheel's time resolution.
func (w *Wheel[T]) Tick() time.Duration { return w.tick }

// Len returns the number of scheduled, not yet popped items.
func (w *Wheel[T]) Len() int { return w.count }

// Schedule enqueues payload at absolute virtual time at, rounded up to
// the next tick. Times in the past run at the current time; the wheel
// never rewinds.
//
//mdrep:hotpath
func (w *Wheel[T]) Schedule(at time.Duration, payload T) {
	t := uint64((at + w.tick - 1) / w.tick)
	if t < w.cur {
		t = w.cur
	}
	w.seq++
	w.insert(wheelItem[T]{at: t, seq: w.seq, payload: payload})
	w.count++
}

// insert places an item at the lowest level whose window, relative to
// cur, contains the item's tick. Within a level this guarantees the slot
// index is >= cur's index at that level, so scans never wrap.
//
//mdrep:hotpath
func (w *Wheel[T]) insert(it wheelItem[T]) {
	for l := 0; l < wheelLevels; l++ {
		shift := uint(wheelBits * (l + 1))
		if it.at>>shift == w.cur>>shift {
			slot := int(it.at>>(wheelBits*l)) & wheelMask
			w.slots[l][slot] = append(w.slots[l][slot], it)
			w.occ[l][slot>>6] |= 1 << (slot & 63)
			return
		}
	}
	w.overflow = append(w.overflow, it)
}

// scan returns the first occupied slot index >= from at the given level.
//
//mdrep:hotpath
func (w *Wheel[T]) scan(level, from int) (int, bool) {
	word := from >> 6
	m := w.occ[level][word] & (^uint64(0) << (from & 63))
	for {
		if m != 0 {
			return word<<6 + bits.TrailingZeros64(m), true
		}
		word++
		if word >= wheelSlots/64 {
			return 0, false
		}
		m = w.occ[level][word]
	}
}

// takeSlot drains a slot into pending, sorted by seq (cascading can
// interleave insertion orders; seq restores global FIFO).
//
//mdrep:hotpath
func (w *Wheel[T]) takeSlot(level, slot int) {
	items := w.slots[level][slot]
	w.slots[level][slot] = items[:0:cap(items)]
	w.occ[level][slot>>6] &^= 1 << (slot & 63)
	w.pending = append(w.pending[:0], items...)
	w.pendIdx = 0
	// Insertion sort by seq: a slot holds a handful of items and seqs
	// are unique, and the closure-free form keeps the pop path
	// allocation-free (sort.Slice boxes its less func on every call).
	for i := 1; i < len(w.pending); i++ {
		it := w.pending[i]
		j := i - 1
		for j >= 0 && w.pending[j].seq > it.seq {
			w.pending[j+1] = w.pending[j]
			j--
		}
		w.pending[j+1] = it
	}
}

// refill advances cur to the earliest occupied tick and drains its level-0
// slot into pending. It reports whether any item was found.
//
//mdrep:hotpath
func (w *Wheel[T]) refill() bool {
	for {
		// Level 0: every item in a slot shares one exact tick.
		if s, ok := w.scan(0, int(w.cur&wheelMask)); ok {
			w.cur = (w.cur &^ wheelMask) | uint64(s)
			w.takeSlot(0, s)
			return true
		}
		// Higher levels: jump to the earliest occupied sub-window and
		// cascade its items down, then retry from level 0.
		cascaded := false
		for l := 1; l < wheelLevels; l++ {
			shift := uint(wheelBits * l)
			if s, ok := w.scan(l, int(w.cur>>shift)&wheelMask); ok {
				groupMask := (uint64(1) << (wheelBits * (l + 1))) - 1
				w.cur = (w.cur &^ groupMask) | uint64(s)<<shift
				items := w.slots[l][s]
				w.slots[l][s] = items[:0:cap(items)]
				w.occ[l][s>>6] &^= 1 << (s & 63)
				for _, it := range items {
					w.insert(it)
				}
				cascaded = true
				break
			}
		}
		if cascaded {
			continue
		}
		if len(w.overflow) > 0 {
			w.drainOverflow()
			continue
		}
		return false
	}
}

// drainOverflow jumps cur to the window of the earliest overflow item and
// reinserts every overflow item that window now covers.
func (w *Wheel[T]) drainOverflow() {
	min := w.overflow[0].at
	for _, it := range w.overflow[1:] {
		if it.at < min {
			min = it.at
		}
	}
	w.cur = min &^ (wheelSpan - 1)
	rest := w.overflow[:0]
	for _, it := range w.overflow {
		if it.at>>(wheelBits*wheelLevels) == w.cur>>(wheelBits*wheelLevels) {
			w.insert(it)
		} else {
			rest = append(rest, it)
		}
	}
	w.overflow = rest
}

// Next pops the earliest scheduled item, advancing the virtual clock to
// its tick. It reports ok=false when the wheel is empty.
//
//mdrep:hotpath
func (w *Wheel[T]) Next() (now time.Duration, payload T, ok bool) {
	if w.pendIdx >= len(w.pending) {
		if !w.refill() {
			var zero T
			return w.clock.Now(), zero, false
		}
	}
	it := w.pending[w.pendIdx]
	w.pendIdx++
	w.count--
	w.Executed++
	w.clock.advance(time.Duration(it.at) * w.tick)
	return w.clock.Now(), it.payload, true
}
