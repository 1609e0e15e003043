package sim

import "time"

// Clock is a virtual simulation clock. Time starts at zero and advances
// only when a Wheel pops events; it never reads the wall clock.
type Clock struct {
	now time.Duration
}

// Now returns the current virtual time as an offset from the simulation
// epoch.
func (c *Clock) Now() time.Duration { return c.now }

// advance moves the clock forward. The Wheel is the only caller; time
// never moves backwards.
func (c *Clock) advance(t time.Duration) {
	if t > c.now {
		c.now = t
	}
}
