package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// The test below pins the aliasing contract of the single-copy merge (see
// mergeScratch): a merge reads its input tables as views of their storage,
// and a retired table's extents are recycled into the next output table —
// most recently freed first (the free list is LIFO), so with one table
// retired per round every buffer is reused at once, by the very next round.
// Anything that kept a view past its round would see another table's bytes.

// stamped returns a value for key idx that carries its own identity:
// "v<n>-" followed by a fill byte derived from n, where n%stampKeys == idx.
// checkStamp can therefore tell, without a model, that a value read back is
// some whole value once written for that key — not a torn mix, and not bytes
// of another record.
const stampKeys = 100000

func stamped(idx, gen, size int) []byte { return val(gen*stampKeys+idx, size) }

func checkStamp(idx int, v []byte) error {
	dash := bytes.IndexByte(v, '-')
	if dash < 2 || v[0] != 'v' {
		return fmt.Errorf("key %d: value %.16q has no stamp", idx, v)
	}
	n, err := strconv.Atoi(string(v[1:dash]))
	if err != nil || n%stampKeys != idx {
		return fmt.Errorf("key %d: value %.16q is stamped for another key", idx, v)
	}
	fill := byte('a' + n%26)
	for i, b := range v[dash+1:] {
		if b != fill {
			return fmt.Errorf("key %d: value stamped %d has byte %q at %d, want %q", idx, n, b, dash+1+i, fill)
		}
	}
	return nil
}

// Async mode: lock-free GETs and iterators race background merges on four
// partitions that share one flash device — and so one extent free list: a
// table one partition retires becomes the next output table of another.
// Tables span several extents here. Readers hold manifest snapshots, so no
// table they can reach may be recycled under them: every value any reader
// sees must be a whole value once written for its key — a flash GET's
// included, which decodes its block in place in the table's extents. Runs under -race in
// `make test`, where a recycled extent written while a reader copies from
// it would also be reported as a data race.
func TestAsyncReadersRaceExtentRecycling(t *testing.T) {
	o := asyncTestOptions()
	o.Partitions = 4
	o.NVMBudget = 1 << 20
	o.TargetSSTBytes = 600 << 10
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	const (
		keys    = 4000
		writers = 2
		writes  = 6000
	)
	for i := 0; i < keys; i++ {
		if _, err := db.Put(key(i), stamped(i, 0, 900)); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var flashHits atomic.Int64
	var wg, readers sync.WaitGroup
	errs := make(chan error, 16)
	fail := func(err error) {
		select {
		case errs <- err:
		default:
		}
		stop.Store(true)
	}
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for gen := 1; gen <= writes && !stop.Load(); gen++ {
				i := rng.Intn(keys/writers)*writers + w // writers own disjoint keys
				if _, err := db.Put(key(i), stamped(i, gen, 600+rng.Intn(400))); err != nil {
					fail(fmt.Errorf("put: %w", err))
					return
				}
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(2)
		go func(r int) { // point reads
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			var buf []byte
			for !stop.Load() {
				i := rng.Intn(keys)
				v, tier, _, err := db.GetBuf(key(i), buf)
				if err != nil || tier == TierMiss {
					fail(fmt.Errorf("get key %d: tier %v err %v", i, tier, err))
					return
				}
				if err := checkStamp(i, v); err != nil {
					fail(err)
					return
				}
				if tier == TierFlash {
					flashHits.Add(1)
				}
				buf = v[:0]
			}
		}(r)
		go func(r int) { // scans
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for !stop.Load() {
				it := db.NewIterator(key(rng.Intn(keys)), 64)
				var prev []byte
				for n := 0; it.Next() && n < 64; n++ {
					var i int
					if _, err := fmt.Sscanf(string(it.Key()), "user%08d", &i); err != nil {
						fail(fmt.Errorf("scan: key %q: %v", it.Key(), err))
						break
					}
					if err := checkStamp(i, it.Value()); err != nil {
						fail(fmt.Errorf("scan: %w", err))
						break
					}
					if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
						fail(fmt.Errorf("scan out of order: %q then %q", prev, it.Key()))
						break
					}
					prev = append(prev[:0], it.Key()...)
				}
				if err := it.Close(); err != nil {
					fail(fmt.Errorf("scan close: %w", err))
				}
			}
		}(r)
	}
	wg.Wait()
	stop.Store(true)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if flashHits.Load() == 0 {
		t.Fatal("no point read was served from flash; the test needs in-place block decodes to race")
	}
	db.DrainCompactions()
	if st := db.Stats(); st.Compactions < 8 {
		t.Fatalf("only %d background rounds ran; the test needs merges to race", st.Compactions)
	}
	for i := 0; i < keys; i++ {
		v, tier, _, err := db.Get(key(i))
		if err != nil || tier == TierMiss {
			t.Fatalf("final sweep: key %d tier %v err %v", i, tier, err)
		}
		if err := checkStamp(i, v); err != nil {
			t.Fatalf("final sweep: %v", err)
		}
	}
}
