package tracker

import (
	"fmt"
	"math/rand"
	"testing"
)

// refTracker is the tracker as it was before its index became an
// open-addressing table: the same CLOCK ring indexed by a map[string]int.
// Every observable result of Tracker must match it.
type refTracker struct {
	capacity int
	entries  []refEntry
	index    map[string]int
	hand     int
	size     int
	dist     [MaxClock + 1]int
	flashCnt int
}

type refEntry struct {
	key   string
	idx   uint64
	clock uint8
	loc   Location
	used  bool
}

func newRef(capacity int) *refTracker {
	if capacity < 1 {
		capacity = 1
	}
	return &refTracker{capacity: capacity, entries: make([]refEntry, capacity), index: make(map[string]int, capacity)}
}

func (t *refTracker) Touch(key []byte, idx uint64, loc Location) (uint64, bool) {
	if i, ok := t.index[string(key)]; ok {
		e := &t.entries[i]
		t.dist[e.clock]--
		e.clock = MaxClock
		t.dist[MaxClock]++
		e.idx = idx
		t.setLoc(e, loc)
		return 0, false
	}
	var evictedIdx uint64
	var didEvict bool
	slot := -1
	if t.size < t.capacity {
		for t.entries[t.hand].used {
			t.advance()
		}
		slot = t.hand
		t.advance()
	} else {
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
	t.entries[slot] = refEntry{key: string(key), idx: idx, loc: loc, used: true}
	t.index[string(key)] = slot
	t.dist[0]++
	if loc == Flash {
		t.flashCnt++
	}
	t.size++
	return evictedIdx, didEvict
}

func (t *refTracker) advance() {
	if t.hand++; t.hand == t.capacity {
		t.hand = 0
	}
}

func (t *refTracker) setLoc(e *refEntry, loc Location) {
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

func (t *refTracker) Clock(key []byte) (int, bool) {
	i, ok := t.index[string(key)]
	if !ok {
		return 0, false
	}
	return int(t.entries[i].clock), true
}

func (t *refTracker) SetLocation(key []byte, loc Location) {
	if i, ok := t.index[string(key)]; ok {
		t.setLoc(&t.entries[i], loc)
	}
}

func (t *refTracker) Scan(loc Location, lo, hi []byte, fn func(key string, clock int)) {
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

func (t *refTracker) Forget(key []byte) {
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
	*e = refEntry{}
	t.size--
}

func (t *refTracker) FlashFraction() float64 {
	if t.size == 0 {
		return 0
	}
	return float64(t.flashCnt) / float64(t.size)
}

// trackerKeys is the model tests' key pool: 0-24 bytes, with keys that tie
// in their first 16 bytes and differ after them, keys that differ only in
// length, and the engine's 16-byte user keys.
var trackerKeys = func() [][]byte {
	keys := [][]byte{{}, {0}, {0, 0}, []byte("a"), []byte("a\x00")}
	for i := 0; i < 200; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user%012d", i)))
	}
	for i := 0; i < 40; i++ {
		keys = append(keys, []byte(fmt.Sprintf("user000000000000%c", 'a'+i%26)+string(make([]byte, i/26))))
		keys = append(keys, []byte(fmt.Sprintf("k%d", i)))
	}
	return keys
}()

// runTrackerModel interprets prog three bytes per step — operation, key,
// argument — on a Tracker and a refTracker of the same capacity, and fails
// on the first result that differs. oneCluster sends every key of the
// Tracker to one probe run that wraps around the end of its index.
func runTrackerModel(t *testing.T, capacity int, oneCluster bool, prog []byte) {
	tr, ref := New(capacity), newRef(capacity)
	tr.oneCluster = oneCluster
	for s := 0; s+2 < len(prog); s += 3 {
		op, arg := prog[s], prog[s+2]
		key := trackerKeys[int(prog[s+1])%len(trackerKeys)]
		loc := Location(arg & 1)
		switch op % 8 {
		case 0, 1, 2, 3:
			ev, did := tr.Touch(key, uint64(arg), loc)
			wantEv, wantDid := ref.Touch(key, uint64(arg), loc)
			if ev != wantEv || did != wantDid {
				t.Fatalf("step %d: Touch(%q) evicted %d,%v, model %d,%v", s/3, key, ev, did, wantEv, wantDid)
			}
		case 4:
			tr.Forget(key)
			ref.Forget(key)
		case 5:
			tr.SetLocation(key, loc)
			ref.SetLocation(key, loc)
		case 6:
			c, ok := tr.Clock(key)
			wantC, wantOK := ref.Clock(key)
			if c != wantC || ok != wantOK || tr.Coldness(key) != refColdness(wantC, wantOK) {
				t.Fatalf("step %d: Clock(%q) = %d,%v, model %d,%v", s/3, key, c, ok, wantC, wantOK)
			}
		case 7:
			lo := key
			hi := trackerKeys[int(arg)%len(trackerKeys)]
			if arg&2 != 0 {
				lo = nil
			}
			if arg&4 != 0 {
				hi = nil
			}
			if got, want := scanOf(tr.Scan, loc, lo, hi), scanOf(ref.Scan, loc, lo, hi); got != want {
				t.Fatalf("step %d: Scan(%v, %q, %q)\n got %s\nwant %s", s/3, loc, lo, hi, got, want)
			}
		}
		if tr.Len() != ref.size || tr.Distribution() != ref.dist || tr.FlashFraction() != ref.FlashFraction() {
			t.Fatalf("step %d: Len %d dist %v flash %v, model %d %v %v", s/3,
				tr.Len(), tr.Distribution(), tr.FlashFraction(), ref.size, ref.dist, ref.FlashFraction())
		}
	}
	for _, loc := range []Location{NVM, Flash} {
		if got, want := scanOf(tr.Scan, loc, nil, nil), scanOf(ref.Scan, loc, nil, nil); got != want {
			t.Fatalf("final Scan(%v)\n got %s\nwant %s", loc, got, want)
		}
	}
}

func refColdness(c int, ok bool) float64 {
	if !ok {
		return 1
	}
	return 1 / float64(c+1)
}

func scanOf(scan func(Location, []byte, []byte, func(string, int)), loc Location, lo, hi []byte) string {
	out := ""
	scan(loc, lo, hi, func(key string, clock int) { out += fmt.Sprintf("%q:%d ", key, clock) })
	return out
}

func TestTrackerModel(t *testing.T) {
	for _, oneCluster := range []bool{false, true} {
		for _, capacity := range []int{1, 7, 64, 300} {
			rng := rand.New(rand.NewSource(int64(capacity)))
			prog := make([]byte, 3*20000)
			rng.Read(prog)
			t.Run(fmt.Sprintf("cap%d/oneCluster=%v", capacity, oneCluster), func(t *testing.T) {
				runTrackerModel(t, capacity, oneCluster, prog)
			})
		}
	}
}

func FuzzTrackerModel(f *testing.F) {
	f.Add(uint8(7), false, []byte{0, 1, 0, 0, 2, 1, 4, 1, 0, 7, 0, 2})
	f.Add(uint8(3), true, []byte{0, 1, 0, 0, 2, 1, 0, 3, 0, 0, 4, 1, 4, 2, 0, 6, 3, 0})
	f.Fuzz(func(t *testing.T, capacity uint8, oneCluster bool, prog []byte) {
		if len(prog) > 3*4096 {
			prog = prog[:3*4096]
		}
		runTrackerModel(t, int(capacity%64)+1, oneCluster, prog)
	})
}
