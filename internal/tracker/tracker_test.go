package tracker

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func k(i int) []byte { return []byte(fmt.Sprintf("key-%05d", i)) }

func TestInsertAndTouch(t *testing.T) {
	tr := New(10)
	tr.Touch(k(1), 1, NVM)
	if c, ok := tr.Clock(k(1)); !ok || c != 0 {
		t.Fatalf("fresh insert clock = %d,%v want 0,true", c, ok)
	}
	tr.Touch(k(1), 1, NVM)
	if c, _ := tr.Clock(k(1)); c != MaxClock {
		t.Fatalf("re-access clock = %d, want %d", c, MaxClock)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Clock(k(2)); ok {
		t.Fatal("untracked key reported tracked")
	}
}

func TestDistributionMaintained(t *testing.T) {
	tr := New(100)
	for i := 0; i < 10; i++ {
		tr.Touch(k(i), uint64(i), NVM) // all clock 0
	}
	d := tr.Distribution()
	if d[0] != 10 || d[3] != 0 {
		t.Fatalf("dist = %v", d)
	}
	for i := 0; i < 4; i++ {
		tr.Touch(k(i), uint64(i), NVM) // 4 keys jump to clock 3
	}
	d = tr.Distribution()
	if d[0] != 6 || d[3] != 4 {
		t.Fatalf("dist = %v", d)
	}
	total := 0
	for _, n := range d {
		total += n
	}
	if total != tr.Len() {
		t.Fatalf("dist total %d != len %d", total, tr.Len())
	}
}

func TestClockEviction(t *testing.T) {
	tr := New(4)
	for i := 0; i < 4; i++ {
		tr.Touch(k(i), uint64(i), NVM)
	}
	// Heat up keys 0 and 1.
	tr.Touch(k(0), 0, NVM)
	tr.Touch(k(1), 1, NVM)
	// Inserting a 5th key must evict one of the cold keys (2 or 3),
	// never the hot ones.
	evicted, did := tr.Touch(k(9), 9, NVM)
	if !did {
		t.Fatal("no eviction at capacity")
	}
	if evicted != 2 && evicted != 3 {
		t.Fatalf("evicted hot key idx %d", evicted)
	}
	if _, ok := tr.Clock(k(0)); !ok {
		t.Fatal("hot key 0 lost")
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestEvictionDecrementsClocks(t *testing.T) {
	tr := New(2)
	tr.Touch(k(0), 0, NVM)
	tr.Touch(k(0), 0, NVM) // clock 3
	tr.Touch(k(1), 1, NVM)
	tr.Touch(k(1), 1, NVM) // clock 3
	// Insert forces the hand to decrement both hot keys until one hits 0.
	tr.Touch(k(2), 2, NVM)
	if tr.Len() != 2 {
		t.Fatalf("Len = %d", tr.Len())
	}
	// One of 0/1 was evicted after decrements; survivor's clock < 3.
	survivors := 0
	for _, key := range [][]byte{k(0), k(1)} {
		if c, ok := tr.Clock(key); ok {
			survivors++
			if c >= MaxClock {
				t.Fatalf("survivor clock %d not decremented", c)
			}
		}
	}
	if survivors != 1 {
		t.Fatalf("survivors = %d, want 1", survivors)
	}
}

func TestLocationTracking(t *testing.T) {
	tr := New(10)
	tr.Touch(k(0), 0, NVM)
	tr.Touch(k(1), 1, Flash)
	if f := tr.FlashFraction(); f != 0.5 {
		t.Fatalf("FlashFraction = %f", f)
	}
	tr.SetLocation(k(0), Flash)
	if f := tr.FlashFraction(); f != 1.0 {
		t.Fatalf("FlashFraction = %f after demotion", f)
	}
	tr.SetLocation(k(0), NVM)
	tr.SetLocation(k(1), NVM)
	if f := tr.FlashFraction(); f != 0 {
		t.Fatalf("FlashFraction = %f after promotions", f)
	}
	// SetLocation on untracked key is a no-op.
	tr.SetLocation(k(99), Flash)
	if f := tr.FlashFraction(); f != 0 {
		t.Fatalf("untracked SetLocation changed fraction: %f", f)
	}
}

func TestForget(t *testing.T) {
	tr := New(10)
	tr.Touch(k(0), 0, Flash)
	tr.Forget(k(0))
	if tr.Len() != 0 || tr.FlashFraction() != 0 {
		t.Fatalf("len=%d flash=%f after forget", tr.Len(), tr.FlashFraction())
	}
	d := tr.Distribution()
	if d[0] != 0 {
		t.Fatalf("dist = %v after forget", d)
	}
	tr.Forget(k(1)) // no-op
	// Slot must be reusable.
	for i := 0; i < 10; i++ {
		tr.Touch(k(i), uint64(i), NVM)
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestColdness(t *testing.T) {
	tr := New(10)
	if c := tr.Coldness(k(0)); c != 1.0 {
		t.Fatalf("untracked coldness = %f, want 1", c)
	}
	tr.Touch(k(0), 0, NVM) // clock 0
	if c := tr.Coldness(k(0)); c != 1.0 {
		t.Fatalf("clock-0 coldness = %f, want 1", c)
	}
	tr.Touch(k(0), 0, NVM) // clock 3
	if c := tr.Coldness(k(0)); c != 0.25 {
		t.Fatalf("clock-3 coldness = %f, want 0.25", c)
	}
}

func TestQuickInvariants(t *testing.T) {
	// Property: under random touch sequences, size ≤ capacity, the
	// distribution sums to size, and flash count matches entries.
	f := func(ops []uint16, capRaw uint8) bool {
		capacity := int(capRaw)%32 + 1
		tr := New(capacity)
		for _, op := range ops {
			key := k(int(op) % 64)
			loc := NVM
			if op%2 == 0 {
				loc = Flash
			}
			tr.Touch(key, uint64(op)%64, loc)
		}
		if tr.Len() > tr.Capacity() {
			return false
		}
		d := tr.Distribution()
		total := 0
		for _, n := range d {
			if n < 0 {
				return false
			}
			total += n
		}
		if total != tr.Len() {
			return false
		}
		ff := tr.FlashFraction()
		return ff >= 0 && ff <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityOne(t *testing.T) {
	tr := New(0) // raised to 1
	if tr.Capacity() != 1 {
		t.Fatalf("capacity = %d", tr.Capacity())
	}
	tr.Touch(k(0), 7, NVM)
	tr.Touch(k(0), 7, NVM) // clock 3
	evicted, did := tr.Touch(k(1), 1, NVM)
	if !did || evicted != 7 {
		t.Fatalf("evicted %d,%v", evicted, did)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestScan(t *testing.T) {
	tr := New(16)
	for i := 0; i < 10; i++ {
		loc := NVM
		if i%2 == 1 {
			loc = Flash
		}
		tr.Touch(k(i), uint64(i), loc)
	}
	tr.Touch(k(5), 5, Flash) // clock → MaxClock
	tr.Forget(k(7))
	var got []string
	clocks := map[string]int{}
	scan := func(lo, hi []byte) {
		got = got[:0]
		tr.Scan(Flash, lo, hi, func(key string, clock int) {
			got = append(got, key)
			clocks[key] = clock
		})
	}
	scan(nil, nil)
	if fmt.Sprint(got) != fmt.Sprint([]string{"key-00001", "key-00003", "key-00005", "key-00009"}) {
		t.Fatalf("flash keys = %v", got)
	}
	if clocks["key-00005"] != MaxClock || clocks["key-00001"] != 0 {
		t.Fatalf("clocks = %v", clocks)
	}
	scan(k(3), k(9)) // [lo, hi): 3 in, 9 out
	if fmt.Sprint(got) != fmt.Sprint([]string{"key-00003", "key-00005"}) {
		t.Fatalf("flash keys in [3,9) = %v", got)
	}
	tr.SetLocation(k(3), NVM)
	scan(nil, k(9))
	if fmt.Sprint(got) != fmt.Sprint([]string{"key-00001", "key-00005"}) {
		t.Fatalf("after promotion = %v", got)
	}
}

// BenchmarkTouch touches 16-byte keys drawn from four times the capacity,
// most from a hot eighth: a mix of hits, inserts and evictions.
func BenchmarkTouch(b *testing.B) {
	const capacity = 10000
	keys := make([][]byte, 4*capacity)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("user%012d", i))
	}
	rng := rand.New(rand.NewSource(1))
	draw := make([]int, 1<<16)
	for i := range draw {
		if rng.Intn(4) == 0 {
			draw[i] = rng.Intn(len(keys))
		} else {
			draw[i] = rng.Intn(len(keys) / 8)
		}
	}
	tr := New(capacity)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := draw[i%len(draw)]
		tr.Touch(keys[k], uint64(k), NVM)
	}
}
