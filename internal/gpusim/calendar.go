package gpusim

import (
	"math"
	"math/bits"
)

// calSlots is the calendar's wheel size in cycles (a power of two).
// Every finite wake horizon of a 1024-line launch lies within it; a
// farther one is visited early once per turn of the wheel.
const calSlots = 64

// calendar is a timing wheel over the units the cycle loop steps (the
// SMs): it records each unit's wake horizon,
// and slot t mod calSlots holds a bitset of the units whose wake falls
// on a cycle congruent to t, so the loop visits only those instead of
// testing every unit's horizon. Any unit count works; a slot is as many words as it needs.
//
// A unit's bit is set at every wake it is given (set, lower) and taken
// when a cycle of its slot comes. The loop keeps its now < wake check:
// a unit visited before its wake — a bit left behind by a wake that
// moved, or a wake more than calSlots cycles out — is inserted again
// instead of stepped, and one visited after its wake has passed is due
// anyway. When every is set (skipIdle off) every member is due every
// cycle and the wheel stays empty.
type calendar struct {
	wake    []int64  // per-unit horizon; math.MaxInt64 for non-members
	slots   []uint64 // word w of slot t's bitset at w*calSlots + t
	members []uint64 // the units the loop steps at all
	due     []uint64 // take's result, valid until the next take
	every   bool
}

// newCalendar builds a calendar over n units.
func newCalendar(n int) *calendar {
	w := (n + 63) / 64
	return &calendar{wake: make([]int64, n), slots: make([]uint64, w*calSlots),
		members: make([]uint64, w), due: make([]uint64, w)}
}

// reset empties the calendar and makes each member due at cycle
// start: a launch, and a fork resuming one, starts by stepping every
// unit it steps at all. Other units never wake.
func (c *calendar) reset(start int64, members []int, every bool) {
	clear(c.slots)
	clear(c.members)
	c.every = every
	for id := range c.wake {
		c.wake[id] = math.MaxInt64
	}
	for _, id := range members {
		c.members[id>>6] |= 1 << (id & 63)
		c.wake[id] = start
		c.insert(id, start)
	}
}

// set gives a unit stepped at cycle now its new wake. A wake at or
// before now (a scheduler that issued keeps its old one) means the next
// cycle.
func (c *calendar) set(id int, wake, now int64) {
	c.wake[id] = wake
	c.insert(id, max(wake, now+1))
}

// lower moves a unit's wake earlier when an event for it (a reply
// queued toward its port) comes first; wake must lie after the
// current cycle.
func (c *calendar) lower(id int, wake int64) {
	if wake < c.wake[id] {
		c.wake[id] = wake
		c.insert(id, wake)
	}
}

// insert sets the unit's bit in the slot of cycle at, which is never
// a past cycle. A unit waking at math.MaxInt64 gets no bit; only lower
// can wake it.
func (c *calendar) insert(id int, at int64) {
	if c.every || at == math.MaxInt64 {
		return
	}
	c.slots[(id>>6)*calSlots+int(at&(calSlots-1))] |= 1 << (id & 63)
}

// take returns the bitset of the units due at cycle now, stale ones
// included, and clears their slot.
func (c *calendar) take(now int64) []uint64 {
	if c.every {
		return c.members
	}
	for w, i := 0, int(now&(calSlots-1)); w < len(c.due); w, i = w+1, i+calSlots {
		c.due[w], c.slots[i] = c.slots[i], 0
	}
	return c.due
}

// dueBy reports whether a unit with a bit in cycle t's slot has its
// wake at or before t. Every unit's bit lies in the slot of its wake,
// or of the cycle after its step when that wake has passed, until a
// cycle of that slot is taken, which steps the unit or inserts it
// again. So when the loop has stepped the cycle before t or found no
// unit due since, dueBy(t) is exact: some unit is due at t.
func (c *calendar) dueBy(t int64) bool {
	for w, i := 0, int(t&(calSlots-1)); w < len(c.due); w, i = w+1, i+calSlots {
		for word := c.slots[i]; word != 0; word &= word - 1 {
			if c.wake[w<<6|bits.TrailingZeros64(word)] <= t {
				return true
			}
		}
	}
	return false
}
