// Positive/negative fixture for the re-entrancy half of locksafe: a
// facade guarding its state with an RWMutex field named mu.
package lockbox

import "sync"

type Box struct {
	mu  sync.RWMutex
	val int
}

func (b *Box) Get() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.val
}

func (b *Box) Set(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.val = v
}

func (b *Box) BadWrite(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.Set(v) // want `Box\.BadWrite calls Set while holding mu`
}

func (b *Box) BadRead() int {
	b.mu.RLock()
	defer b.mu.RUnlock()
	return b.Get() // want `Box\.BadRead calls Get while holding mu`
}

func (b *Box) BadTransitive() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.bump() // want `Box\.BadTransitive calls bump while holding mu`
}

// bump does not lock itself, but calls Set, which does: it transitively
// acquires mu.
func (b *Box) bump() { b.Set(b.val + 1) }

// addLocked never touches mu: calling it under the lock is the sanctioned
// *Locked-helper idiom.
func (b *Box) addLocked(v int) { b.val += v }

func (b *Box) OKComposite(v int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.addLocked(v)
}

// OKUpgrade is the read-then-upgrade shape: the self-call happens after
// the explicit RUnlock, so it is not made under the lock.
func (b *Box) OKUpgrade(v int) int {
	b.mu.RLock()
	cur := b.val
	b.mu.RUnlock()
	b.Set(cur + v)
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.val
}

// OKBeforeLock calls the acquiring method before taking the lock.
func (b *Box) OKBeforeLock(v int) {
	b.Set(v)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.val++
}

// OKDispatch mirrors peer.ApplyEvent: each case manages its own locking
// and the delegating branch never takes mu itself, so the lock in the
// first case does not cover the self-call in the second.
func (b *Box) OKDispatch(kind, v int) {
	switch kind {
	case 0:
		b.mu.Lock()
		defer b.mu.Unlock()
		b.val = v
	default:
		b.Set(v)
	}
}

// plain has no mu field, so its self-calls are out of scope.
type plain struct{ val int }

func (p *plain) outer() { p.inner() }
func (p *plain) inner() { p.val++ }
