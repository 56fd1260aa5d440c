package core

import (
	"bytes"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
)

// collectIter drains an iterator into owned KV copies.
func collectIter(t *testing.T, it *Iterator, max int) []KV {
	t.Helper()
	var out []KV
	for it.Valid() && (max <= 0 || len(out) < max) {
		out = append(out, KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		it.Next()
	}
	if err := it.Err(); err != nil {
		t.Fatalf("iterator error: %v", err)
	}
	return out
}

// TestIteratorMergedOrder drives the two-level iterator over a dataset
// spanning both tiers (the small budget forces demotions) and checks the
// stream is exactly the sorted live key set, values intact.
func TestIteratorMergedOrder(t *testing.T) {
	for _, parts := range []int{1, 4} {
		o := testOptions()
		o.Partitions = parts
		db, err := Open(o)
		if err != nil {
			t.Fatal(err)
		}
		const n = 800
		for i := 0; i < n; i++ {
			if _, err := db.Put(key(i), val(i, 512)); err != nil {
				t.Fatal(err)
			}
		}
		st := db.Stats()
		if st.FlashObjects == 0 {
			t.Fatal("dataset never demoted; iterator test lost its flash half")
		}
		it := db.NewIterator(nil, 0)
		kvs := collectIter(t, it, 0)
		it.Close()
		if len(kvs) != n {
			t.Fatalf("parts=%d: iterator yielded %d keys, want %d", parts, len(kvs), n)
		}
		for i, kv := range kvs {
			if want := key(i); !bytes.Equal(kv.Key, want) {
				t.Fatalf("parts=%d: kv[%d].Key = %q, want %q", parts, i, kv.Key, want)
			}
			if !bytes.Equal(kv.Value, val(i, 512)) {
				t.Fatalf("parts=%d: kv[%d] wrong value", parts, i)
			}
		}
	}
}

// TestIteratorSeek exercises forward and backward seeks: within the pinned
// snapshot, to arbitrary non-key byte strings, and past the end.
func TestIteratorSeek(t *testing.T) {
	o := testOptions()
	o.Partitions = 2
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	it := db.NewIterator(key(100), 0)
	if !it.Valid() || !bytes.Equal(it.Key(), key(100)) {
		t.Fatalf("positioned at %q, want %q", it.Key(), key(100))
	}
	if !it.Seek(key(350)) || !bytes.Equal(it.Key(), key(350)) {
		t.Fatalf("seek forward landed on %q", it.Key())
	}
	// Backward seek (before the creation start key): re-reads the live
	// index for the new range but must still be correct.
	if !it.Seek(key(5)) || !bytes.Equal(it.Key(), key(5)) {
		t.Fatalf("seek backward landed on %q", it.Key())
	}
	// A non-canonical byte string between keys: "user00000010!" sorts
	// after key(10) and before key(11).
	target := append(append([]byte(nil), key(10)...), '!')
	if !it.Seek(target) || !bytes.Equal(it.Key(), key(11)) {
		t.Fatalf("seek %q landed on %q, want %q", target, it.Key(), key(11))
	}
	if it.Seek([]byte("zzzz")) {
		t.Fatalf("seek past the end still valid at %q", it.Key())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestIteratorTombstoneShadowing deletes keys whose older versions live on
// flash: the NVM tombstone must shadow the flash version at the iterator's
// merge point, before and after compaction annihilates the pair.
func TestIteratorTombstoneShadowing(t *testing.T) {
	o := testOptions()
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 800
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	if db.Stats().FlashObjects == 0 {
		t.Fatal("nothing on flash; shadowing test needs demoted keys")
	}
	// Delete every 7th key — many will have flash-resident versions, so
	// the deletes leave NVM tombstones behind.
	deleted := map[string]bool{}
	for i := 0; i < n; i += 7 {
		if _, err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		deleted[string(key(i))] = true
	}
	check := func(when string) {
		it := db.NewIterator(nil, 0)
		defer it.Close()
		seen := map[string]bool{}
		for kvs := collectIter(t, it, 0); len(kvs) > 0; kvs = kvs[1:] {
			k := string(kvs[0].Key)
			if deleted[k] {
				t.Fatalf("%s: deleted key %q resurfaced in scan", when, k)
			}
			if seen[k] {
				t.Fatalf("%s: key %q yielded twice", when, k)
			}
			seen[k] = true
		}
		if want := n - len(deleted); len(seen) != want {
			t.Fatalf("%s: scan yielded %d keys, want %d", when, len(seen), want)
		}
	}
	check("before compaction")
	// Force a full demotion pass so tombstones meet their flash versions
	// and annihilate, then re-check.
	for _, p := range db.parts {
		p.mu.Lock()
		p.demotionJob(p.clk.Now())
		p.mu.Unlock()
	}
	check("after compaction")
}

// TestIteratorMidScanCompaction pins the snapshot-consistency property the
// iterator exists for: a compaction that demotes keys mid-scan must not
// change what the iterator observes —
// no missing keys, no duplicates, no resurrected deletes, values as of
// iterator creation.
func TestIteratorMidScanCompaction(t *testing.T) {
	o := testOptions()
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 700
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Snapshot of what a consistent scan must observe.
	want, _, err := db.Scan(nil, n+10)
	if err != nil {
		t.Fatal(err)
	}

	it := db.NewIterator(nil, 0)
	var got []KV
	for len(got) < 50 && it.Valid() {
		got = append(got, KV{
			Key:   append([]byte(nil), it.Key()...),
			Value: append([]byte(nil), it.Value()...),
		})
		it.Next()
	}

	// Mid-scan chaos: overwrite values in the unscanned range (these must
	// NOT surface — the iterator pinned its epoch), delete some, insert
	// new keys, and force a demotion compaction on every partition.
	for i := 100; i < 400; i += 3 {
		if _, err := db.Put(key(i), val(i+100000, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 101; i < 400; i += 17 {
		if _, err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := n; i < n+50; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	for _, p := range db.parts {
		p.mu.Lock()
		p.demotionJob(p.clk.Now())
		p.mu.Unlock()
	}

	got = append(got, collectIter(t, it, 0)...)
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("mid-scan compaction changed the view: got %d keys, want %d", len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i].Key, want[i].Key) {
			t.Fatalf("kv[%d].Key = %q, want %q", i, got[i].Key, want[i].Key)
		}
		if !bytes.Equal(got[i].Value, want[i].Value) {
			t.Fatalf("kv[%d] (%q): value changed mid-scan", i, got[i].Key)
		}
	}
	// Sanity: the post-close view DOES include the mutations.
	after, _, err := db.Scan(nil, n+100)
	if err != nil {
		t.Fatal(err)
	}
	if len(after) == len(want) {
		t.Fatal("post-scan view identical to snapshot; chaos phase was a no-op")
	}
}

// TestScanNonCanonicalStartRangePartitioned pins the startIdx routing fix:
// under range partitioning, a Scan whose start key carries no canonical
// key index (KeyIndex falls back to an FNV hash) must still visit every
// partition holding keys ≥ start instead of skipping ahead.
func TestScanNonCanonicalStartRangePartitioned(t *testing.T) {
	o := testOptions()
	o.Partitions = 8
	o.RangePartitioning = true
	o.KeySpace = 1 << 10
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 512
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 256)); err != nil {
			t.Fatal(err)
		}
	}
	for _, start := range [][]byte{
		nil,                     // -∞
		[]byte("user"),          // prefix of every key, no digits: FNV fallback index
		[]byte("a"),             // before every key, non-canonical
		[]byte("user00000100x"), // between key(100) and key(101)
	} {
		kvs, _, err := db.Scan(start, 64)
		if err != nil {
			t.Fatalf("scan %q: %v", start, err)
		}
		if len(kvs) != 64 {
			t.Fatalf("scan %q returned %d keys, want 64 (partitions skipped?)", start, len(kvs))
		}
		wantFirst := key(0)
		if bytes.Compare(start, key(100)) > 0 {
			wantFirst = key(101)
		}
		if !bytes.Equal(kvs[0].Key, wantFirst) {
			t.Fatalf("scan %q starts at %q, want %q", start, kvs[0].Key, wantFirst)
		}
		for i := 1; i < len(kvs); i++ {
			if bytes.Compare(kvs[i-1].Key, kvs[i].Key) >= 0 {
				t.Fatalf("scan %q out of order at %d", start, i)
			}
		}
	}
}

// TestStatsCountClientOps pins the op-accounting invariant: Puts, Gets,
// Deletes, and Scans count exactly the client operations issued — internal
// writes (delete tombstones routed through the put path) must not leak
// into Puts.
func TestStatsCountClientOps(t *testing.T) {
	o := testOptions()
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	var puts, gets, dels, scans int64
	const n = 800
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
		puts++
	}
	if db.Stats().FlashObjects == 0 {
		t.Fatal("no flash objects: deletes would never need tombstones")
	}
	// Deletes across both tiers; flash-resident victims insert tombstones
	// through the internal put path.
	for i := 0; i < n; i += 5 {
		if _, err := db.Delete(key(i)); err != nil {
			t.Fatal(err)
		}
		dels++
	}
	for i := 0; i < 200; i++ {
		if _, _, _, err := db.Get(key(i)); err != nil {
			t.Fatal(err)
		}
		gets++
	}
	for i := 0; i < 10; i++ {
		if _, _, err := db.Scan(key(i*37), 20); err != nil {
			t.Fatal(err)
		}
		scans++
	}
	st := db.Stats()
	if st.Puts != puts || st.Gets != gets || st.Deletes != dels || st.Scans != scans {
		t.Fatalf("stats drifted from issued ops: Puts %d/%d Gets %d/%d Deletes %d/%d Scans %d/%d",
			st.Puts, puts, st.Gets, gets, st.Deletes, dels, st.Scans, scans)
	}
	if got, want := st.Puts+st.Gets+st.Deletes+st.Scans, puts+gets+dels+scans; got != want {
		t.Fatalf("op total %d, want %d", got, want)
	}
}

// TestIteratorBoundedIsSnapshot checks that an iterator created with a limit
// hint (what Scan and the server's SCAN pass) is the same snapshot as one
// without: drained far past the hint it yields the whole creation-time range
// in order, and nothing inserted afterwards — not in the tail past the hint,
// and not after a Seek back to the start.
func TestIteratorBoundedIsSnapshot(t *testing.T) {
	o := testOptions()
	o.NVMBudget = 64 << 20 // all NVM-resident: the index is the whole scan
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 300
	for i := 0; i < n; i += 2 {
		mustPut(t, db, key(i), val(i, 256))
	}
	it := db.NewIterator(nil, 10) // hint far below the drain below
	defer it.Close()
	for i := 1; i < n; i += 2 {
		mustPut(t, db, key(i), val(i, 256))
	}
	kvs := collectIter(t, it, 0)
	if len(kvs) != n/2 {
		t.Fatalf("hinted iterator yielded %d keys, want the %d present at creation", len(kvs), n/2)
	}
	for i, kv := range kvs {
		if !bytes.Equal(kv.Key, key(2*i)) || !bytes.Equal(kv.Value, val(2*i, 256)) {
			t.Fatalf("kv[%d] = %q, want %q with its creation-time value", i, kv.Key, key(2*i))
		}
	}
	if !it.Seek(nil) || !bytes.Equal(it.Key(), key(0)) {
		t.Fatalf("Seek(nil) landed on %q, want %q", it.Key(), key(0))
	}
	if !it.Next() || !bytes.Equal(it.Key(), key(2)) {
		t.Fatalf("after Seek(nil), Next landed on %q, want %q (key(1) was inserted after creation)", it.Key(), key(2))
	}
}

// TestIteratorSnapshotModelUnderChurn is the iterator's snapshot contract as
// a model check: writers churn puts, overwrites (across size classes) and
// deletes over every partition while background compaction demotes under
// them. At quiesced instants the test copies the model and opens a hinted and
// an unhinted iterator, lets the churn resume, and drains both — the unhinted
// one with a mid-scan Seek backwards. Each must yield exactly the copied
// model: every key once, in order, with its creation-time value.
func TestIteratorSnapshotModelUnderChurn(t *testing.T) {
	o := asyncTestOptions()
	o.Partitions = 4
	o.NVMBudget = 512 << 10 // tight: the churn keeps demotion merges running
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		writers = 4
		stripe  = 300 // each writer owns a disjoint key stripe, so its model is exact
		rounds  = 5
	)
	var (
		gate sync.RWMutex // writers hold it shared around an op and its model update; the checker takes it to quiesce
		ops  atomic.Int64
		wg   sync.WaitGroup
	)
	stop := make(chan struct{})
	models := make([]map[string][]byte, writers)
	for w := range models {
		models[w] = map[string][]byte{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for {
				select {
				case <-stop:
					return
				default:
				}
				k := key(w*stripe + rng.Intn(stripe))
				var err error
				gate.RLock()
				if rng.Intn(4) == 0 {
					_, err = db.Delete(k)
					delete(models[w], string(k))
				} else {
					v := val(rng.Intn(1<<20), 50+rng.Intn(800))
					_, err = db.Put(k, v)
					models[w][string(k)] = v
				}
				gate.RUnlock()
				if err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				ops.Add(1)
			}
		}()
	}
	stopWriters := sync.OnceFunc(func() { close(stop); wg.Wait() })
	defer stopWriters() // before db.Close, also when a check below fails
	// waitOps returns once the writers have completed n more operations.
	waitOps := func(n int64) {
		for target := ops.Load() + n; ops.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}

	for round := 0; round < rounds && !t.Failed(); round++ {
		waitOps(1500)
		gate.Lock()
		want := map[string][]byte{}
		for _, m := range models {
			for k, v := range m {
				want[k] = v
			}
		}
		hinted := db.NewIterator(nil, 10)
		plain := db.NewIterator(nil, 0)
		gate.Unlock()
		keys := make([]string, 0, len(want))
		for k := range want {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		// walk requires it to yield exactly keys next, with the model's values.
		walk := func(name string, it *Iterator, keys []string) {
			t.Helper()
			for i, k := range keys {
				if !it.Valid() {
					t.Fatalf("round %d, %s: ended %d keys early at %q (err %v)", round, name, len(keys)-i, k, it.Err())
				}
				if string(it.Key()) != k {
					t.Fatalf("round %d, %s: yielded %q, model has %q next", round, name, it.Key(), k)
				}
				if !bytes.Equal(it.Value(), want[k]) {
					t.Fatalf("round %d, %s: %q is not at its creation-time value", round, name, k)
				}
				it.Next()
			}
		}
		end := func(name string, it *Iterator) {
			t.Helper()
			if it.Valid() {
				t.Fatalf("round %d, %s: yielded %q past the model's last key", round, name, it.Key())
			}
			if err := it.Close(); err != nil {
				t.Fatalf("round %d, %s: %v", round, name, err)
			}
		}
		waitOps(300) // the churn is back before anything past the first entry is read
		walk("hinted", hinted, keys)
		end("hinted", hinted)
		half := len(keys) / 2
		walk("plain", plain, keys[:half])
		waitOps(300)
		if half > 0 {
			plain.Seek([]byte(keys[half/2]))
		}
		walk("plain after Seek backwards", plain, keys[half/2:])
		end("plain", plain)
	}
	stopWriters()
	if st := db.Stats(); st.Demoted == 0 {
		t.Fatalf("no demotion ran under the churn; the check lost its compaction half: %+v", st)
	}
}

// TestIteratorClockOwnership pins the accounting fix the iterator was built
// for: a scan issued against one partition's key space must advance only
// the issuing partition's clock, no matter how many foreign partitions its
// merge reads through.
func TestIteratorClockOwnership(t *testing.T) {
	o := testOptions()
	o.Partitions = 4
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	for i := 0; i < n; i++ {
		if _, err := db.Put(key(i), val(i, 512)); err != nil {
			t.Fatal(err)
		}
	}
	db.AdvanceAll()
	before := make([]int64, db.Partitions())
	for i := range before {
		before[i] = int64(db.PartitionClock(i))
	}
	start := key(7)
	home := db.PartitionOf(start)
	if _, _, err := db.Scan(start, 100); err != nil {
		t.Fatal(err)
	}
	for i := range before {
		after := int64(db.PartitionClock(i))
		if i == home {
			if after <= before[i] {
				t.Fatalf("issuing partition %d clock did not advance", i)
			}
			continue
		}
		if after != before[i] {
			t.Fatalf("foreign partition %d clock moved %d → %d during a scan issued on partition %d",
				i, before[i], after, home)
		}
	}
}
