package bgp

import (
	"slices"
	"sync"

	"repro/internal/core"
)

// manualClock is a core.Clock a test moves by hand. Advance runs, on the
// caller, the After callbacks that come due on the way, in (deadline,
// arming) order and each with the clock reading its deadline — a jump over
// three keepalive ticks replays three ticks a third of the hold time apart,
// and what is due at one instant runs in the order it was armed.
type manualClock struct {
	mu     sync.Mutex
	now    core.Time
	timers []manualTimer // in arming order
}

type manualTimer struct {
	at core.Time
	fn func()
}

func (c *manualClock) Now() core.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *manualClock) After(d core.Time, fn func()) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.timers = append(c.timers, manualTimer{c.now + d, fn})
}

func (c *manualClock) Advance(d core.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	end := c.now + d
	for {
		next := -1
		for i, tm := range c.timers { // a callback may re-arm: look again each time
			if tm.at <= end && (next < 0 || tm.at < c.timers[next].at) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		tm := c.timers[next]
		c.timers = slices.Delete(c.timers, next, next+1)
		c.now = tm.at
		c.mu.Unlock()
		tm.fn()
		c.mu.Lock()
	}
	c.now = end
}
