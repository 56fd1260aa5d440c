package slab

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/prismdb/prismdb/internal/simdev"
)

func newManager(t *testing.T) (*Manager, *simdev.Device) {
	t.Helper()
	dev := simdev.New(simdev.NVMParams(256 << 20))
	m, err := NewManager(dev, simdev.NewPageCache(1<<20), "p0-slab", nil)
	if err != nil {
		t.Fatal(err)
	}
	return m, dev
}

func TestPutGetRoundTrip(t *testing.T) {
	m, _ := newManager(t)
	clk := simdev.NewClock()
	rec := Record{Key: []byte("alpha"), Value: []byte("beta"), Version: 7}
	loc, err := m.Put(clk, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.Get(clk, loc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Key, rec.Key) || !bytes.Equal(got.Value, rec.Value) ||
		got.Version != 7 || got.Tombstone {
		t.Fatalf("got %+v", got)
	}
	if m.LiveObjects() != 1 {
		t.Fatalf("LiveObjects = %d", m.LiveObjects())
	}
}

func TestZeroVersionRejected(t *testing.T) {
	m, _ := newManager(t)
	if _, err := m.Put(nil, Record{Key: []byte("k"), Version: 0}); err == nil {
		t.Fatal("zero version must be rejected (0 marks free slots)")
	}
}

func TestClassSelection(t *testing.T) {
	m, _ := newManager(t)
	// 128-byte class fits payloads up to 112 bytes.
	if ci := m.ClassOf(10, 100); ci != 0 {
		t.Fatalf("ClassOf(110) = %d, want 0", ci)
	}
	if ci := m.ClassOf(10, 103); ci != 1 {
		t.Fatalf("ClassOf(113) = %d, want 1", ci)
	}
	if ci := m.ClassOf(10, 4096); ci != -1 {
		t.Fatalf("oversize ClassOf = %d, want -1", ci)
	}
	loc, err := m.Put(nil, Record{Key: make([]byte, 10), Value: make([]byte, 500), Version: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 10+500+16 = 526 bytes: smallest fitting class is 768.
	if m.SlotSize(loc) != 768 {
		t.Fatalf("SlotSize = %d, want 768", m.SlotSize(loc))
	}
}

func TestInPlaceUpdate(t *testing.T) {
	m, _ := newManager(t)
	clk := simdev.NewClock()
	loc, _ := m.Put(clk, Record{Key: []byte("k"), Value: []byte("v1"), Version: 1})
	if err := m.Update(clk, loc, Record{Key: []byte("k"), Value: []byte("v2"), Version: 2}); err != nil {
		t.Fatal(err)
	}
	got, _ := m.Get(clk, loc)
	if string(got.Value) != "v2" || got.Version != 2 {
		t.Fatalf("got %+v", got)
	}
	if m.LiveObjects() != 1 {
		t.Fatalf("LiveObjects = %d after in-place update", m.LiveObjects())
	}
	// Update that doesn't fit the class must fail.
	big := Record{Key: []byte("k"), Value: make([]byte, 300), Version: 3}
	if err := m.Update(clk, loc, big); err == nil {
		t.Fatal("oversized in-place update must fail")
	}
}

func TestDeleteFreesAndReuses(t *testing.T) {
	m, _ := newManager(t)
	loc1, _ := m.Put(nil, Record{Key: []byte("a"), Value: []byte("1"), Version: 1})
	if err := m.Delete(nil, loc1); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(nil, loc1); !errors.Is(err, ErrSlotFree) {
		t.Fatalf("Get after delete = %v, want ErrSlotFree", err)
	}
	if m.LiveObjects() != 0 || m.LiveBytes() != 0 {
		t.Fatalf("live=%d bytes=%d", m.LiveObjects(), m.LiveBytes())
	}
	// Lowest free slot is reused first.
	loc2, _ := m.Put(nil, Record{Key: []byte("b"), Value: []byte("2"), Version: 2})
	if loc2 != loc1 {
		t.Fatalf("slot not reused: %v vs %v", loc2, loc1)
	}
}

// TestEpochPinContract pins down what a reclamation epoch guarantees its
// holder (iterators, the compactor, the scrubber) and what closing one hands
// back: a slot freed under a pin keeps its bytes and is not reused; pins
// nest; the deferred frees leave the Manager dirty until they have been
// handed out, zeroed and recycled; an unpin with no pin is a bug.
func TestEpochPinContract(t *testing.T) {
	m, _ := newManager(t)
	a, _ := m.Put(nil, Record{Key: []byte("a"), Value: []byte("1"), Version: 1})
	m.PinEpoch()
	m.PinEpoch() // nested: a merge round under an open iterator
	if !m.Pinned() || m.DeferredDirty() {
		t.Fatalf("after pinning: Pinned=%v DeferredDirty=%v", m.Pinned(), m.DeferredDirty())
	}
	if err := m.Delete(nil, a); err != nil {
		t.Fatal(err)
	}
	if m.LiveObjects() != 0 {
		t.Fatalf("LiveObjects = %d: the free's accounting is not deferred", m.LiveObjects())
	}
	if got, err := m.Get(nil, a); err != nil || string(got.Value) != "1" {
		t.Fatalf("slot freed under a pin reads %+v, %v; want its old record", got, err)
	}
	if b, _ := m.Put(nil, Record{Key: []byte("b"), Value: []byte("2"), Version: 2}); b == a {
		t.Fatal("Put reused a slot freed under an open epoch")
	}
	if locs := m.UnpinEpochDeferred(); locs != nil || !m.Pinned() {
		t.Fatalf("inner unpin handed out %v (Pinned=%v) while the outer pin is open", locs, m.Pinned())
	}
	if !m.DeferredDirty() {
		t.Fatal("DeferredDirty = false with a free parked on the open epoch")
	}
	locs := m.UnpinEpochDeferred()
	if len(locs) != 1 || locs[0] != a || m.Pinned() {
		t.Fatalf("last unpin handed out %v (Pinned=%v), want the one deferred slot", locs, m.Pinned())
	}
	if !m.DeferredDirty() {
		t.Fatal("DeferredDirty = false before the handed-out slot is zeroed and recycled")
	}
	if _, err := m.Get(nil, a); err != nil {
		t.Fatalf("handed-out slot unreadable before ZeroSlot: %v", err)
	}
	if err := m.ZeroSlot(a); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Get(nil, a); !errors.Is(err, ErrSlotFree) {
		t.Fatalf("Get after ZeroSlot = %v, want ErrSlotFree", err)
	}
	if !m.DeferredDirty() {
		t.Fatal("DeferredDirty = false before RecycleSlots confirms the zeroing")
	}
	m.RecycleSlots(locs)
	if m.DeferredDirty() {
		t.Fatal("DeferredDirty = true after RecycleSlots")
	}
	if c, _ := m.Put(nil, Record{Key: []byte("c"), Value: []byte("3"), Version: 3}); c != a {
		t.Fatalf("recycled slot %v not reused (got %v)", a, c)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("UnpinEpochDeferred without a pin did not panic")
		}
	}()
	m.UnpinEpochDeferred()
}

func TestFreeSlotsSortedByLocation(t *testing.T) {
	// The tiny-object optimisation: freeing slots 5,1,3 must hand back
	// slot 1 first.
	m, _ := newManager(t)
	var locs []Loc
	for i := 0; i < 8; i++ {
		l, _ := m.Put(nil, Record{Key: []byte{byte(i)}, Value: []byte("v"), Version: uint64(i + 1)})
		locs = append(locs, l)
	}
	m.Delete(nil, locs[5])
	m.Delete(nil, locs[1])
	m.Delete(nil, locs[3])
	l, _ := m.Put(nil, Record{Key: []byte("x"), Value: []byte("v"), Version: 99})
	if l.Slot() != locs[1].Slot() {
		t.Fatalf("reused slot %d, want lowest free %d", l.Slot(), locs[1].Slot())
	}
}

func TestTombstone(t *testing.T) {
	m, _ := newManager(t)
	loc, _ := m.Put(nil, Record{Key: []byte("dead"), Version: 5, Tombstone: true})
	got, err := m.Get(nil, loc)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Tombstone {
		t.Fatal("tombstone flag lost")
	}
}

func TestRecoverRebuildsState(t *testing.T) {
	dev := simdev.New(simdev.NVMParams(256 << 20))
	m1, _ := NewManager(dev, nil, "p0-slab", nil)
	type entry struct {
		loc Loc
		rec Record
	}
	var live []entry
	for i := 0; i < 200; i++ {
		rec := Record{
			Key:     []byte(fmt.Sprintf("key-%04d", i)),
			Value:   bytes.Repeat([]byte{byte(i)}, 50+i%500),
			Version: uint64(i + 1),
		}
		loc, err := m1.Put(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		live = append(live, entry{loc, rec})
	}
	// Delete every third object.
	want := map[string]entry{}
	for i, e := range live {
		if i%3 == 0 {
			m1.Delete(nil, e.loc)
		} else {
			want[string(e.rec.Key)] = e
		}
	}
	// "Crash": reopen the slabs from the same device files.
	m2, err := NewManager(dev, nil, "p0-slab", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]Record{}
	if _, err := m2.Recover(simdev.NewClock(), func(loc Loc, rec Record) {
		rec.Value = append([]byte(nil), rec.Value...) // rec views Recover's buffer
		got[string(rec.Key)] = rec
	}); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for k, e := range want {
		r, ok := got[k]
		if !ok || !bytes.Equal(r.Value, e.rec.Value) || r.Version != e.rec.Version {
			t.Fatalf("key %q: got %+v want %+v", k, r, e.rec)
		}
	}
	if m2.LiveObjects() != len(want) {
		t.Fatalf("LiveObjects = %d, want %d", m2.LiveObjects(), len(want))
	}
	// Freed slots are reusable after recovery.
	if _, err := m2.Put(nil, Record{Key: []byte("new"), Value: []byte("v"), Version: 999}); err != nil {
		t.Fatal(err)
	}
}

func TestPutChargesDeviceWrite(t *testing.T) {
	m, dev := newManager(t)
	clk := simdev.NewClock()
	m.Put(clk, Record{Key: []byte("k"), Value: []byte("v"), Version: 1})
	st := dev.Stats()
	if st.WriteOps != 1 {
		t.Fatalf("WriteOps = %d, want 1 (synchronous slab write)", st.WriteOps)
	}
	if clk.Now() == 0 {
		t.Fatal("clock not advanced by synchronous write")
	}
}

func TestGetUsesPageCache(t *testing.T) {
	dev := simdev.New(simdev.NVMParams(256 << 20))
	cache := simdev.NewPageCache(1 << 20)
	m, _ := NewManager(dev, cache, "p0-slab", nil)
	clk := simdev.NewClock()
	loc, _ := m.Put(clk, Record{Key: []byte("k"), Value: []byte("v"), Version: 1})
	dev.ResetStats()
	// The write left the page resident, so this read is free.
	if _, err := m.Get(clk, loc); err != nil {
		t.Fatal(err)
	}
	if st := dev.Stats(); st.ReadOps != 0 {
		t.Fatalf("ReadOps = %d, want 0 (page-cache hit)", st.ReadOps)
	}
}

func TestLiveBytesAccounting(t *testing.T) {
	m, _ := newManager(t)
	loc, _ := m.Put(nil, Record{Key: []byte("a"), Value: make([]byte, 100), Version: 1})
	if m.LiveBytes() != 128 {
		t.Fatalf("LiveBytes = %d, want 128", m.LiveBytes())
	}
	m.Put(nil, Record{Key: []byte("b"), Value: make([]byte, 900), Version: 2})
	if m.LiveBytes() != 128+1024 {
		t.Fatalf("LiveBytes = %d, want %d", m.LiveBytes(), 128+1024)
	}
	m.Delete(nil, loc)
	if m.LiveBytes() != 1024 {
		t.Fatalf("LiveBytes = %d after delete, want 1024", m.LiveBytes())
	}
	if m.AllocatedBytes() <= m.LiveBytes() {
		t.Fatal("allocated should exceed live (slabs grow in extents)")
	}
}

func TestQuickSlabModel(t *testing.T) {
	// Property: random put/update/delete sequences keep the slab
	// equivalent to a map keyed by location.
	type op struct {
		Kind byte
		Idx  uint8
		Size uint16
	}
	f := func(ops []op) bool {
		dev := simdev.New(simdev.NVMParams(512 << 20))
		m, err := NewManager(dev, nil, "q-slab", nil)
		if err != nil {
			return false
		}
		model := map[Loc]Record{}
		var locs []Loc
		version := uint64(1)
		for _, o := range ops {
			switch o.Kind % 3 {
			case 0: // put
				rec := Record{
					Key:     []byte(fmt.Sprintf("k%d", o.Idx)),
					Value:   make([]byte, int(o.Size)%2000),
					Version: version,
				}
				version++
				loc, err := m.Put(nil, rec)
				if err != nil {
					return false
				}
				if _, exists := model[loc]; exists {
					return false // double allocation!
				}
				model[loc] = rec
				locs = append(locs, loc)
			case 1: // delete random live loc
				if len(locs) == 0 {
					continue
				}
				loc := locs[int(o.Idx)%len(locs)]
				if _, live := model[loc]; !live {
					continue
				}
				if err := m.Delete(nil, loc); err != nil {
					return false
				}
				delete(model, loc)
			case 2: // verify random live loc
				if len(locs) == 0 {
					continue
				}
				loc := locs[int(o.Idx)%len(locs)]
				want, live := model[loc]
				got, err := m.Get(nil, loc)
				if live {
					if err != nil || !bytes.Equal(got.Value, want.Value) || got.Version != want.Version {
						return false
					}
				} else if !errors.Is(err, ErrSlotFree) {
					return false
				}
			}
		}
		return m.LiveObjects() == len(model)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestManyObjectsAcrossGrowth(t *testing.T) {
	m, _ := newManager(t)
	rng := rand.New(rand.NewSource(1))
	locs := map[string]Loc{}
	for i := 0; i < 3000; i++ { // > growSlots to force extension
		k := fmt.Sprintf("key-%05d", i)
		v := make([]byte, rng.Intn(100))
		loc, err := m.Put(nil, Record{Key: []byte(k), Value: v, Version: uint64(i + 1)})
		if err != nil {
			t.Fatal(err)
		}
		locs[k] = loc
	}
	for k, loc := range locs {
		rec, err := m.Get(nil, loc)
		if err != nil || string(rec.Key) != k {
			t.Fatalf("key %s: rec %+v err %v", k, rec, err)
		}
	}
}

func TestBadClassConfig(t *testing.T) {
	dev := simdev.New(simdev.NVMParams(1 << 20))
	if _, err := NewManager(dev, nil, "x", []int{8}); err == nil {
		t.Fatal("class smaller than header must fail")
	}
	if _, err := NewManager(dev, nil, "y", []int{128, 128}); err == nil {
		t.Fatal("non-increasing classes must fail")
	}
}
