package buckets

import (
	"testing"
	"testing/quick"
)

func TestPutDemotePromoteCounts(t *testing.T) {
	m := New(1000, 100)
	if m.NumBuckets() != 10 {
		t.Fatalf("buckets = %d", m.NumBuckets())
	}
	m.OnPut(5)
	m.OnPut(5) // idempotent
	m.OnPut(150)
	if m.NVMKeyCount() != 2 {
		t.Fatalf("nvm count = %d", m.NVMKeyCount())
	}
	m.OnDemote(5)
	if m.NVMKeyCount() != 1 || m.FlashKeyCount() != 1 {
		t.Fatalf("after demote: nvm=%d flash=%d", m.NVMKeyCount(), m.FlashKeyCount())
	}
	m.OnPut(5) // promotion copies: the flash version stays
	if m.NVMKeyCount() != 2 || m.FlashKeyCount() != 1 {
		t.Fatalf("after promote: nvm=%d flash=%d", m.NVMKeyCount(), m.FlashKeyCount())
	}
	m.OnNVMDelete(5)
	m.OnNVMDelete(5) // idempotent
	if m.NVMKeyCount() != 1 {
		t.Fatalf("after delete: nvm=%d", m.NVMKeyCount())
	}
}

func TestEstimateWholeBucket(t *testing.T) {
	m := New(200, 100)
	for i := uint64(0); i < 50; i++ {
		m.OnPut(i)
	}
	for i := uint64(50); i < 80; i++ {
		m.OnDemote(i) // flash only
	}
	for i := uint64(0); i < 10; i++ {
		m.OnHot(i)
	}
	s := m.Estimate(0, 100)
	if s.Tn != 50 || s.Tf != 30 || s.HotNVM != 10 {
		t.Fatalf("stats = %+v", s)
	}
	if s.P() != 0.2 {
		t.Fatalf("P = %f", s.P())
	}
	if s.O() != 0 {
		t.Fatalf("O = %f (no key on both tiers)", s.O())
	}
	// Benefit: 40 cold ×1 + 10 hot ×0.25.
	if s.Benefit() != 42.5 {
		t.Fatalf("Benefit = %f", s.Benefit())
	}
}

func TestEstimateWeightedOverlap(t *testing.T) {
	// Paper's Fig 8 example: a range overlapping 75% of bucket 1 and
	// 25% of bucket 2 weights their counters accordingly.
	m := New(200, 100)
	for i := uint64(0); i < 100; i++ {
		m.OnPut(i) // bucket 0: 100 NVM keys
	}
	for i := uint64(100); i < 200; i++ {
		m.OnPut(i) // bucket 1: 100 NVM keys
	}
	s := m.Estimate(25, 126) // 75% of bucket 0, 26% of bucket 1
	want := 0.75*100 + 0.26*100
	if diff := s.Tn - want; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("Tn = %f, want %f", s.Tn, want)
	}
}

func TestOverlapBothTiers(t *testing.T) {
	m := New(100, 100)
	m.OnPut(1)
	m.OnDemote(1) // flash
	m.OnPut(1)    // fresh write again: on both tiers now
	s := m.Estimate(0, 100)
	if s.Overlap != 1 {
		t.Fatalf("Overlap = %f, want 1", s.Overlap)
	}
	if s.O() != 1 {
		t.Fatalf("O = %f", s.O())
	}
	m.OnFlashDelete(1) // merge removed stale version
	s = m.Estimate(0, 100)
	if s.Overlap != 0 || s.Tf != 0 {
		t.Fatalf("after flash delete: %+v", s)
	}
}

func TestHotColdBits(t *testing.T) {
	m := New(100, 100)
	m.OnPut(7)
	m.OnHot(7)
	s := m.Estimate(0, 100)
	if s.HotNVM != 1 {
		t.Fatalf("HotNVM = %f", s.HotNVM)
	}
	m.OnCold(7) // tracker eviction
	s = m.Estimate(0, 100)
	if s.HotNVM != 0 {
		t.Fatalf("HotNVM after cold = %f", s.HotNVM)
	}
}

func TestEstimateEmptyAndInverted(t *testing.T) {
	m := New(100, 10)
	if s := m.Estimate(50, 50); s.Tn != 0 {
		t.Fatalf("empty range Tn = %f", s.Tn)
	}
	if s := m.Estimate(60, 50); s.Tn != 0 {
		t.Fatalf("inverted range Tn = %f", s.Tn)
	}
	// Stats helpers on zero stats.
	var z Stats
	if z.P() != 0 || z.O() != 0 || z.Benefit() != 0 {
		t.Fatal("zero stats helpers should return 0")
	}
}

func TestIndexBeyondKeySpaceClamped(t *testing.T) {
	m := New(100, 50) // 2 buckets
	m.OnPut(9999)     // clamps to last bucket rather than panicking
	if m.NVMKeyCount() != 1 {
		t.Fatalf("count = %d", m.NVMKeyCount())
	}
}

func TestQuickCountsConsistent(t *testing.T) {
	// Property: after a random op sequence, NVMKeyCount equals the model
	// set size, and every Estimate over the full space matches it.
	f := func(ops []uint16) bool {
		const space = 256
		m := New(space, 64)
		nvm := map[uint64]bool{}
		flash := map[uint64]bool{}
		for _, op := range ops {
			idx := uint64(op) % space
			switch (op / space) % 4 {
			case 0:
				m.OnPut(idx)
				nvm[idx] = true
			case 1:
				if nvm[idx] {
					m.OnDemote(idx)
					delete(nvm, idx)
					flash[idx] = true
				}
			case 2: // promotion copies: the flash version stays
				if flash[idx] {
					m.OnPut(idx)
					nvm[idx] = true
				}
			case 3:
				if nvm[idx] {
					m.OnNVMDelete(idx)
					delete(nvm, idx)
				}
			}
		}
		if m.NVMKeyCount() != len(nvm) {
			return false
		}
		if m.FlashKeyCount() != len(flash) {
			return false
		}
		s := m.Estimate(0, space)
		return int(s.Tn+0.5) == len(nvm) && int(s.Tf+0.5) == len(flash)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestResidentOnBothTiers walks a key promoted by copy — NVM bit set by
// OnPut with the flash bit left standing — through every way the state
// ends: the flash version dropped by a merge, the NVM version demoted onto
// it, a client delete with its tombstone, and a restart's rebuild.
func TestResidentOnBothTiers(t *testing.T) {
	both := func() *Map {
		m := New(100, 100)
		m.OnPut(3)
		m.OnDemote(3) // flash only
		m.OnHot(3)
		if s := m.Estimate(0, 100); s.HotFlash != 1 {
			t.Fatalf("hot flash-only key: HotFlash = %f, want 1", s.HotFlash)
		}
		m.OnPut(3) // promotion by copy
		return m
	}
	check := func(m *Map, what string, nvm, flash int, overlap, hotFlash float64) {
		t.Helper()
		s := m.Estimate(0, 100)
		if m.NVMKeyCount() != nvm || m.FlashKeyCount() != flash || s.Overlap != overlap || s.HotFlash != hotFlash {
			t.Fatalf("%s: nvm=%d flash=%d overlap=%f hotFlash=%f, want %d %d %f %f",
				what, m.NVMKeyCount(), m.FlashKeyCount(), s.Overlap, s.HotFlash, nvm, flash, overlap, hotFlash)
		}
	}

	// Both bits: counted as overlap (a clean duplicate makes the range
	// cheaper to merge) and no longer a promotion target.
	check(both(), "promoted by copy", 1, 1, 1, 0)

	m := both()
	m.OnFlashDelete(3) // merge kept the NVM copy pinned, dropped the flash one
	check(m, "flash version dropped", 1, 0, 0, 0)

	m = both()
	m.OnDemote(3) // merge demoted the NVM copy over the flash one
	check(m, "demoted", 0, 1, 0, 1)

	m = both()
	m.OnNVMDelete(3) // client delete removes the NVM copy...
	m.OnCold(3)
	m.OnPut(3) // ...and leaves a tombstone, flash may still hold a version
	check(m, "deleted, tombstone pending", 1, 1, 1, 0)
	m.OnNVMDelete(3) // the merge annihilates tombstone and flash version
	m.OnFlashDelete(3)
	check(m, "tombstone merged", 0, 0, 0, 0)

	// Recovery rebuilds from the slabs first, then the SST log: OnDemote
	// per flash record, OnPut again for keys the slabs also hold.
	m = New(100, 100)
	m.OnPut(3)
	m.OnDemote(3)
	m.OnPut(3)
	check(m, "recovered", 1, 1, 1, 0)
}
