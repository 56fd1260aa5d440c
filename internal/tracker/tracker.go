// Package tracker implements PrismDB's lightweight object-popularity
// tracker (§4.3): a capacity-bounded map from keys to a 1-byte metadata
// value — two clock bits plus one location bit (NVM or flash) — evicted with
// the classic CLOCK algorithm. The tracker deliberately covers only a
// fraction of the database's keys (10–20 % in the paper); untracked keys are
// treated as cold.
//
// The tracker also maintains the clock-value distribution (the paper's
// mapper state): four counters, one per clock value, updated incrementally.
package tracker

// Location records which tier currently holds a key's latest version.
type Location uint8

const (
	// NVM marks a key resident on the fast tier.
	NVM Location = iota
	// Flash marks a key resident on the slow tier.
	Flash
)

// MaxClock is the largest clock value (2 bits).
const MaxClock = 3

type entry struct {
	key   string
	idx   uint64 // caller-supplied key index, returned on eviction
	clock uint8
	loc   Location
	used  bool
}

// Tracker approximates LRU over a bounded key set. It is not internally
// synchronized: in PrismDB each partition owns one tracker guarded by the
// partition lock.
type Tracker struct {
	capacity int
	entries  []entry        // circular buffer for the clock hand
	index    map[string]int // key -> entries slot
	hand     int
	size     int
	dist     [MaxClock + 1]int // clock-value distribution (the mapper's input)
	flashCnt int               // tracked keys whose location is Flash
}

// New creates a tracker bounded to capacity keys. Capacity below 1 is
// raised to 1.
func New(capacity int) *Tracker {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracker{
		capacity: capacity,
		entries:  make([]entry, capacity),
		index:    make(map[string]int, capacity),
	}
}

// Len returns the number of tracked keys.
func (t *Tracker) Len() int { return t.size }

// Capacity returns the configured bound.
func (t *Tracker) Capacity() int { return t.capacity }

// Distribution returns the current clock-value histogram: dist[v] is the
// number of tracked keys with clock value v.
func (t *Tracker) Distribution() [MaxClock + 1]int { return t.dist }

// FlashFraction returns the fraction of tracked keys whose latest version
// lives on flash. Read-triggered compaction detection (§5.3) uses this.
func (t *Tracker) FlashFraction() float64 {
	if t.size == 0 {
		return 0
	}
	return float64(t.flashCnt) / float64(t.size)
}

// Touch records an access to key, which currently resides at loc. idx is an
// opaque caller-supplied key index stored with the entry and handed back on
// eviction, so callers never have to re-derive it from the evicted key (the
// hot read path stays allocation-free). Already tracked keys jump to the
// maximum clock value (§6); new keys are inserted with clock 0, evicting via
// the CLOCK algorithm when full. It returns the index of the key evicted to
// make room, if any.
func (t *Tracker) Touch(key []byte, idx uint64, loc Location) (evictedIdx uint64, didEvict bool) {
	if i, ok := t.index[string(key)]; ok {
		e := &t.entries[i]
		t.dist[e.clock]--
		e.clock = MaxClock
		t.dist[MaxClock]++
		e.idx = idx
		t.setLoc(e, loc)
		return 0, false
	}
	return t.insert(string(key), idx, loc)
}

// insert places a new key with clock 0, running the clock hand if full.
func (t *Tracker) insert(key string, idx uint64, loc Location) (evictedIdx uint64, didEvict bool) {
	slot := -1
	if t.size < t.capacity {
		// Find the next unused slot from the hand.
		for t.entries[t.hand].used {
			t.advance()
		}
		slot = t.hand
		t.advance()
	} else {
		// CLOCK eviction: decrement until a zero-clock victim appears.
		for {
			e := &t.entries[t.hand]
			if e.clock == 0 {
				slot = t.hand
				t.advance()
				break
			}
			t.dist[e.clock]--
			e.clock--
			t.dist[e.clock]++
			t.advance()
		}
		victim := &t.entries[slot]
		evictedIdx, didEvict = victim.idx, true
		delete(t.index, victim.key)
		t.dist[victim.clock]--
		if victim.loc == Flash {
			t.flashCnt--
		}
		t.size--
	}
	e := &t.entries[slot]
	*e = entry{key: key, idx: idx, clock: 0, loc: loc, used: true}
	t.index[key] = slot
	t.dist[0]++
	if loc == Flash {
		t.flashCnt++
	}
	t.size++
	return evictedIdx, didEvict
}

func (t *Tracker) advance() {
	t.hand++
	if t.hand == t.capacity {
		t.hand = 0
	}
}

func (t *Tracker) setLoc(e *entry, loc Location) {
	if e.loc == loc {
		return
	}
	if loc == Flash {
		t.flashCnt++
	} else {
		t.flashCnt--
	}
	e.loc = loc
}

// Clock returns a key's clock value and whether it is tracked. Untracked
// keys are treated by callers as clock 0 (coldness 1), per §5.2.
func (t *Tracker) Clock(key []byte) (int, bool) {
	i, ok := t.index[string(key)]
	if !ok {
		return 0, false
	}
	return int(t.entries[i].clock), true
}

// SetLocation updates the tier of a tracked key without touching its clock.
// Compactions call this when demoting or promoting objects.
func (t *Tracker) SetLocation(key []byte, loc Location) {
	if i, ok := t.index[string(key)]; ok {
		t.setLoc(&t.entries[i], loc)
	}
}

// Scan calls fn with the key and clock value of every tracked key located
// at loc inside [lo, hi) (nil bounds are ±∞). Keys come in clock-buffer slot
// order, which depends only on the access history, so a caller that acts on
// a prefix of them makes the same choice on every replay of that history.
// fn must not mutate the tracker.
func (t *Tracker) Scan(loc Location, lo, hi []byte, fn func(key string, clock int)) {
	for i := range t.entries {
		e := &t.entries[i]
		if !e.used || e.loc != loc {
			continue
		}
		if (lo != nil && e.key < string(lo)) || (hi != nil && e.key >= string(hi)) {
			continue
		}
		fn(e.key, int(e.clock))
	}
}

// Forget drops a key (e.g. after a client Delete).
func (t *Tracker) Forget(key []byte) {
	i, ok := t.index[string(key)]
	if !ok {
		return
	}
	e := &t.entries[i]
	delete(t.index, e.key)
	t.dist[e.clock]--
	if e.loc == Flash {
		t.flashCnt--
	}
	*e = entry{}
	t.size--
}

// Coldness returns the paper's coldness score for a key: 1/(clock+1) for
// tracked keys, 1.0 for untracked keys (§5.2).
func (t *Tracker) Coldness(key []byte) float64 {
	c, ok := t.Clock(key)
	if !ok {
		return 1.0
	}
	return 1.0 / float64(c+1)
}
