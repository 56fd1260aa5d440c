package btree

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func key(i int) []byte { return []byte(fmt.Sprintf("key-%08d", i)) }

func TestEmptyTree(t *testing.T) {
	tr := New()
	if tr.Len() != 0 {
		t.Fatalf("Len = %d", tr.Len())
	}
	if _, ok := tr.Get([]byte("x")); ok {
		t.Fatal("Get on empty tree returned ok")
	}
	if _, ok := tr.Delete([]byte("x")); ok {
		t.Fatal("Delete on empty tree returned ok")
	}
	if _, ok := tr.Min(); ok {
		t.Fatal("Min on empty tree returned ok")
	}
	if _, ok := tr.Max(); ok {
		t.Fatal("Max on empty tree returned ok")
	}
	called := false
	tr.AscendFrom(nil, func(Item) bool { called = true; return true })
	if called {
		t.Fatal("AscendFrom on empty tree called fn")
	}
}

func TestInsertGetSequential(t *testing.T) {
	tr := New()
	const n = 5000
	for i := 0; i < n; i++ {
		if _, replaced := tr.Insert(key(i), uint64(i)); replaced {
			t.Fatalf("unexpected replace at %d", i)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := tr.Get(key(i))
		if !ok || v != uint64(i) {
			t.Fatalf("Get(%d) = %d,%v", i, v, ok)
		}
	}
	if _, ok := tr.Get(key(n)); ok {
		t.Fatal("found absent key")
	}
}

func TestInsertReplace(t *testing.T) {
	tr := New()
	tr.Insert([]byte("a"), 1)
	prev, replaced := tr.Insert([]byte("a"), 2)
	if !replaced || prev != 1 {
		t.Fatalf("replace: prev=%d replaced=%v", prev, replaced)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	v, _ := tr.Get([]byte("a"))
	if v != 2 {
		t.Fatalf("value = %d", v)
	}
}

func TestDeleteRandomOrder(t *testing.T) {
	tr := New()
	const n = 3000
	rng := rand.New(rand.NewSource(42))
	perm := rng.Perm(n)
	for _, i := range perm {
		tr.Insert(key(i), uint64(i))
	}
	perm2 := rng.Perm(n)
	for cnt, i := range perm2 {
		v, ok := tr.Delete(key(i))
		if !ok || v != uint64(i) {
			t.Fatalf("Delete(%d) = %d,%v", i, v, ok)
		}
		if tr.Len() != n-cnt-1 {
			t.Fatalf("Len = %d after %d deletes", tr.Len(), cnt+1)
		}
	}
	if _, ok := tr.Delete(key(0)); ok {
		t.Fatal("double delete returned ok")
	}
}

func TestAscendOrderAndRange(t *testing.T) {
	tr := New()
	const n = 1000
	rng := rand.New(rand.NewSource(7))
	for _, i := range rng.Perm(n) {
		tr.Insert(key(i), uint64(i))
	}
	var got [][]byte
	tr.AscendFrom(nil, func(it Item) bool {
		got = append(got, it.Key)
		return true
	})
	if len(got) != n {
		t.Fatalf("iterated %d items, want %d", len(got), n)
	}
	for i := 1; i < len(got); i++ {
		if bytes.Compare(got[i-1], got[i]) >= 0 {
			t.Fatalf("out of order at %d: %s >= %s", i, got[i-1], got[i])
		}
	}
	// AscendFrom a mid key yields exactly the tail.
	var tail []uint64
	tr.AscendFrom(key(500), func(it Item) bool {
		tail = append(tail, it.Val)
		return true
	})
	if len(tail) != 500 || tail[0] != 500 {
		t.Fatalf("tail len=%d first=%v", len(tail), tail)
	}
	// Early stop.
	count := 0
	tr.AscendFrom(nil, func(Item) bool { count++; return count < 10 })
	if count != 10 {
		t.Fatalf("early stop iterated %d", count)
	}
	// Range [100, 200).
	var rangeVals []uint64
	tr.Range(key(100), key(200), func(it Item) bool {
		rangeVals = append(rangeVals, it.Val)
		return true
	})
	if len(rangeVals) != 100 || rangeVals[0] != 100 || rangeVals[99] != 199 {
		t.Fatalf("range = len %d, bounds %v..%v", len(rangeVals), rangeVals[0], rangeVals[len(rangeVals)-1])
	}
}

func TestAscendFromBetweenKeys(t *testing.T) {
	tr := New()
	for i := 0; i < 100; i += 2 {
		tr.Insert(key(i), uint64(i))
	}
	var first uint64 = 999
	tr.AscendFrom(key(51), func(it Item) bool { first = it.Val; return false })
	if first != 52 {
		t.Fatalf("first ≥ key(51) = %d, want 52", first)
	}
}

func TestMinMax(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(3))
	for _, i := range rng.Perm(500) {
		tr.Insert(key(i), uint64(i))
	}
	mn, _ := tr.Min()
	mx, _ := tr.Max()
	if !bytes.Equal(mn.Key, key(0)) || !bytes.Equal(mx.Key, key(499)) {
		t.Fatalf("min=%s max=%s", mn.Key, mx.Key)
	}
}

// modelOp is a scripted operation for model-based property testing.
type modelOp struct {
	Kind byte // 0 insert, 1 delete, 2 get
	Key  uint16
	Val  uint64
}

func TestQuickAgainstMapModel(t *testing.T) {
	// Property: a random op sequence leaves the tree equivalent to a map,
	// and iteration yields the sorted key set.
	f := func(ops []modelOp) bool {
		tr := New()
		model := map[string]uint64{}
		for _, op := range ops {
			k := []byte(fmt.Sprintf("%05d", op.Key%997))
			switch op.Kind % 3 {
			case 0:
				_, replaced := tr.Insert(k, op.Val)
				_, existed := model[string(k)]
				if replaced != existed {
					return false
				}
				model[string(k)] = op.Val
			case 1:
				v, ok := tr.Delete(k)
				mv, existed := model[string(k)]
				if ok != existed || (ok && v != mv) {
					return false
				}
				delete(model, string(k))
			case 2:
				v, ok := tr.Get(k)
				mv, existed := model[string(k)]
				if ok != existed || (ok && v != mv) {
					return false
				}
			}
		}
		if tr.Len() != len(model) {
			return false
		}
		var keys []string
		tr.AscendFrom(nil, func(it Item) bool {
			keys = append(keys, string(it.Key))
			return true
		})
		if len(keys) != len(model) || !sort.StringsAreSorted(keys) {
			return false
		}
		for _, k := range keys {
			if _, ok := model[k]; !ok {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestLargeChurn(t *testing.T) {
	// Interleave inserts and deletes to exercise borrow/merge paths.
	tr := New()
	model := map[int]uint64{}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 30000; i++ {
		k := rng.Intn(2000)
		if rng.Intn(3) == 0 {
			_, ok := tr.Delete(key(k))
			_, existed := model[k]
			if ok != existed {
				t.Fatalf("delete mismatch at op %d key %d", i, k)
			}
			delete(model, k)
		} else {
			tr.Insert(key(k), uint64(i))
			model[k] = uint64(i)
		}
	}
	if tr.Len() != len(model) {
		t.Fatalf("Len = %d, model %d", tr.Len(), len(model))
	}
	for k, v := range model {
		got, ok := tr.Get(key(k))
		if !ok || got != v {
			t.Fatalf("Get(%d) = %d,%v want %d", k, got, ok, v)
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New()
	keys := make([][]byte, b.N)
	for i := range keys {
		keys[i] = key(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Insert(keys[i], uint64(i))
	}
}

func BenchmarkGet(b *testing.B) {
	benchmarkGet(b, key)
}

// BenchmarkGetUserKeys looks up the engine's keys: 16 bytes, whose first
// eight ("user0000") every key of a small dataset shares.
func BenchmarkGetUserKeys(b *testing.B) {
	benchmarkGet(b, func(i int) []byte { return []byte(fmt.Sprintf("user%012d", i)) })
}

// benchmarkGet times Get over a 100 000-key tree in key order, with every
// key built before the timer starts.
func benchmarkGet(b *testing.B, key func(int) []byte) {
	const n = 100000
	tr := New()
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = key(i)
		tr.Insert(keys[i], uint64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, _ := tr.Get(keys[i%n])
		sink += v
	}
}

// sink keeps the compiler from dropping a benchmark's measured call.
var sink uint64

// TestSnapshotIsolation pins the copy-on-write contract the engine's
// lock-free GET path depends on: a Snapshot taken at any point observes
// exactly the entries that were live at that point, bit-stable, no matter
// how much the original handle is mutated afterwards.
func TestSnapshotIsolation(t *testing.T) {
	tr := New()
	const n = 2000
	for i := 0; i < n; i++ {
		tr.Insert(key(i), uint64(i))
	}
	snap := tr.Snapshot()

	// Churn the live tree hard: overwrite, delete, and insert far past the
	// snapshot, forcing splits, borrows, and merges at every level.
	for i := 0; i < n; i += 2 {
		tr.Delete(key(i))
	}
	for i := 0; i < n; i++ {
		tr.Insert(key(n+i), uint64(1000000+i))
	}
	for i := 1; i < n; i += 2 {
		tr.Insert(key(i), uint64(2000000+i))
	}

	if snap.Len() != n {
		t.Fatalf("snapshot Len = %d, want %d", snap.Len(), n)
	}
	for i := 0; i < n; i++ {
		v, ok := snap.Get(key(i))
		if !ok || v != uint64(i) {
			t.Fatalf("snapshot Get(%d) = %d,%v want %d", i, v, ok, i)
		}
	}
	if _, ok := snap.Get(key(n + 5)); ok {
		t.Fatal("snapshot sees a key inserted after it was taken")
	}
	count := 0
	var last []byte
	snap.AscendFrom(nil, func(it Item) bool {
		if last != nil && bytes.Compare(last, it.Key) >= 0 {
			t.Fatalf("snapshot out of order: %q after %q", it.Key, last)
		}
		last = append(last[:0], it.Key...)
		count++
		return true
	})
	if count != n {
		t.Fatalf("snapshot ascend visited %d entries, want %d", count, n)
	}
}

// TestSnapshotDeleteIsolation drives the delete restructuring paths (borrow
// left/right, merge, root collapse) against a model while holding snapshots,
// verifying both the live tree and the frozen views.
func TestSnapshotDeleteIsolation(t *testing.T) {
	tr := New()
	rng := rand.New(rand.NewSource(42))
	model := map[int]uint64{}
	const span = 4000
	for i := 0; i < span; i++ {
		tr.Insert(key(i), uint64(i))
		model[i] = uint64(i)
	}
	type frozen struct {
		snap  *Tree
		model map[int]uint64
	}
	var snaps []frozen
	for round := 0; round < 6; round++ {
		m := make(map[int]uint64, len(model))
		for k, v := range model {
			m[k] = v
		}
		snaps = append(snaps, frozen{tr.Snapshot(), m})
		for i := 0; i < 1500; i++ {
			k := rng.Intn(span)
			if rng.Intn(3) == 0 {
				tr.Delete(key(k))
				delete(model, k)
			} else {
				v := uint64(round*10000 + i)
				tr.Insert(key(k), v)
				model[k] = v
			}
		}
	}
	check := func(name string, tr *Tree, model map[int]uint64) {
		if tr.Len() != len(model) {
			t.Fatalf("%s: Len = %d, model %d", name, tr.Len(), len(model))
		}
		for k, want := range model {
			got, ok := tr.Get(key(k))
			if !ok || got != want {
				t.Fatalf("%s: Get(%d) = %d,%v want %d", name, k, got, ok, want)
			}
		}
	}
	check("live", tr, model)
	for i, f := range snaps {
		check(fmt.Sprintf("snap%d", i), f.snap, f.model)
	}
}

// TestSnapshotConcurrentReads runs readers over snapshots while a single
// writer churns the handle — the engine's exact sharing pattern. Run under
// -race: any write to a reachable node is a detector hit.
func TestSnapshotConcurrentReads(t *testing.T) {
	tr := New()
	const n = 1024
	for i := 0; i < n; i++ {
		tr.Insert(key(i), uint64(i))
	}
	snapCh := make(chan *Tree, 64)
	go func() { // single writer
		defer close(snapCh)
		rng := rand.New(rand.NewSource(7))
		for i := 0; i < 20000; i++ {
			k := rng.Intn(2 * n)
			if rng.Intn(4) == 0 {
				tr.Delete(key(k))
			} else {
				tr.Insert(key(k), uint64(i))
			}
			if i%256 == 0 {
				select {
				case snapCh <- tr.Snapshot():
				default:
				}
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(rng *rand.Rand) {
			defer readers.Done()
			for snap := range snapCh {
				var last []byte
				cnt := 0
				snap.AscendFrom(nil, func(it Item) bool {
					if last != nil && bytes.Compare(last, it.Key) >= 0 {
						t.Errorf("snapshot out of order: %q after %q", it.Key, last)
						return false
					}
					last = append(last[:0], it.Key...)
					cnt++
					return cnt < 4096
				})
				for i := 0; i < 64; i++ {
					snap.Get(key(i * 17 % (2 * n)))
				}
				// The pull cursor against the callback walk, from every kind
				// of start: nil, below the minimum, above the maximum, keys
				// held by the (internal) root, and random present or absent
				// keys.
				checkCursor(t, snap, nil, 4*n) // the whole tree
				starts := [][]byte{[]byte("a"), []byte("z")}
				for _, it := range snap.root.items {
					starts = append(starts, it.Key)
				}
				for i := 0; i < 8; i++ {
					starts = append(starts, key(rng.Intn(2*n)))
				}
				for _, start := range starts {
					checkCursor(t, snap, start, 200)
				}
			}
		}(rand.New(rand.NewSource(int64(r))))
	}
	readers.Wait()
	checkCursor(t, New(), nil, 1)
	checkCursor(t, New().Snapshot(), key(1), 1)
}

// checkCursor requires a cursor sought to start to yield the entries
// AscendFrom(start) does, comparing the first max of them and, when the walk
// ends earlier, that the cursor ends with it.
func checkCursor(t *testing.T, tr *Tree, start []byte, max int) {
	t.Helper()
	c := tr.Cursor()
	c.Seek(start)
	seen := 0
	tr.AscendFrom(start, func(want Item) bool {
		if !c.Valid() {
			t.Errorf("seek %q: cursor exhausted after %d entries, walk continues at %q", start, seen, want.Key)
			return false
		}
		if got := c.Item(); !bytes.Equal(got.Key, want.Key) || got.Val != want.Val {
			t.Errorf("seek %q: entry %d is %q=%d, walk has %q=%d", start, seen, got.Key, got.Val, want.Key, want.Val)
			return false
		}
		c.Next()
		seen++
		return seen < max
	})
	if seen < max && c.Valid() {
		t.Errorf("seek %q: cursor continues at %q after the walk's %d entries", start, c.Item().Key, seen)
	}
}
