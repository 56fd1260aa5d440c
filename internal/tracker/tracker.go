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

import (
	"encoding/binary"
	"hash/maphash"
)

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
	id    keyID
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
	entries  []entry // circular buffer for the clock hand
	// index maps a key to its entries slot: an open-addressing table, at
	// least twice the capacity and a power of two, holding slot+1 (0 is an
	// empty cell) at the first free cell from the key's hash, with linear
	// probing. A cell matches a key by its keyID; the key's string is read
	// only for a key longer than 16 bytes whose keyID matches.
	index    []int32
	mask     uint64 // len(index) - 1
	seed     maphash.Seed
	hand     int
	size     int
	dist     [MaxClock + 1]int // clock-value distribution (the mapper's input)
	flashCnt int               // tracked keys whose location is Flash

	// oneCluster, set only by tests, gives every key the index's last cell
	// as its home and one of 16 hashes, so that all keys share one probe run
	// that wraps around, and many share their hash.
	oneCluster bool
}

// New creates a tracker bounded to capacity keys. Capacity below 1 is
// raised to 1.
func New(capacity int) *Tracker {
	if capacity < 1 {
		capacity = 1
	}
	cells := 2
	for cells < 2*capacity {
		cells <<= 1
	}
	return &Tracker{
		capacity: capacity,
		entries:  make([]entry, capacity),
		index:    make([]int32, cells),
		mask:     uint64(cells - 1),
		seed:     maphash.MakeSeed(),
	}
}

// keyID is what the index matches a key by: its hash, which places it in
// the index, and its first 16 bytes as zero-padded words, which settle
// equality for a key no longer than that without reading the entry's
// string.
type keyID struct {
	hash, w0, w1 uint64
}

func (t *Tracker) id(key []byte) keyID {
	h := maphash.Bytes(t.seed, key)
	if t.oneCluster {
		h = h>>60<<32 | 1<<32 - 1
	}
	if len(key) >= 16 {
		return keyID{h, binary.BigEndian.Uint64(key), binary.BigEndian.Uint64(key[8:])}
	}
	var b [16]byte
	copy(b[:], key)
	return keyID{h, binary.BigEndian.Uint64(b[:]), binary.BigEndian.Uint64(b[8:])}
}

// lookup returns the entries slot of key, whose id is k, or -1.
func (t *Tracker) lookup(key []byte, k keyID) int {
	for c := k.hash & t.mask; ; c = (c + 1) & t.mask {
		s := t.index[c]
		if s == 0 {
			return -1
		}
		e := &t.entries[s-1]
		if e.id == k && len(e.key) == len(key) && (len(key) <= 16 || e.key == string(key)) {
			return int(s - 1)
		}
	}
}

// link adds entries slot s, whose key hashes to h, to the index.
func (t *Tracker) link(h uint64, s int) {
	c := h & t.mask
	for t.index[c] != 0 {
		c = (c + 1) & t.mask
	}
	t.index[c] = int32(s + 1)
}

// unlink removes entries slot s, whose key hashes to h, from the index.
// Backward-shift deletion: each later cell of the probe run moves into the
// hole when the hole lies between its home and it, so that every lookup
// still reaches its key without crossing an empty cell.
func (t *Tracker) unlink(h uint64, s int) {
	hole := h & t.mask
	for t.index[hole] != int32(s+1) {
		hole = (hole + 1) & t.mask
	}
	for c := (hole + 1) & t.mask; t.index[c] != 0; c = (c + 1) & t.mask {
		home := t.entries[t.index[c]-1].id.hash & t.mask
		if (c-home)&t.mask >= (c-hole)&t.mask {
			t.index[hole] = t.index[c]
			hole = c
		}
	}
	t.index[hole] = 0
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
	k := t.id(key)
	if i := t.lookup(key, k); i >= 0 {
		e := &t.entries[i]
		t.dist[e.clock]--
		e.clock = MaxClock
		t.dist[MaxClock]++
		e.idx = idx
		t.setLoc(e, loc)
		return 0, false
	}
	return t.insert(string(key), k, idx, loc)
}

// insert places a new key, whose id is k, with clock 0, running the clock
// hand if full.
func (t *Tracker) insert(key string, k keyID, idx uint64, loc Location) (evictedIdx uint64, didEvict bool) {
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
		t.unlink(victim.id.hash, slot)
		t.dist[victim.clock]--
		if victim.loc == Flash {
			t.flashCnt--
		}
		t.size--
	}
	e := &t.entries[slot]
	*e = entry{key: key, id: k, idx: idx, clock: 0, loc: loc, used: true}
	t.link(k.hash, slot)
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
	i := t.lookup(key, t.id(key))
	if i < 0 {
		return 0, false
	}
	return int(t.entries[i].clock), true
}

// SetLocation updates the tier of a tracked key without touching its clock.
// Compactions call this when demoting or promoting objects.
func (t *Tracker) SetLocation(key []byte, loc Location) {
	if i := t.lookup(key, t.id(key)); i >= 0 {
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
	i := t.lookup(key, t.id(key))
	if i < 0 {
		return
	}
	e := &t.entries[i]
	t.unlink(e.id.hash, i)
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
