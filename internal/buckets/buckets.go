// Package buckets implements the approx-MSC bookkeeping of §6: the key
// space is divided into fixed-size buckets (64 K keys by default, the
// average number of keys in an SST file), and each bucket maintains four
// fields — num_nvm_keys, pop_bitmap, nvm_bitmap, flash_bitmap — updated by
// puts, gets, tracker evictions, deletes, and compactions. The MSC metric
// for a candidate compaction key range is then estimated as a weighted sum
// of bucket parameters, where a bucket's weight is the fraction of its key
// span overlapped by the range.
//
// Buckets operate on dense key indices in [0, KeySpace); the engine maps
// byte-string keys to indices.
package buckets

import "math/bits"

// bitset is a fixed-size bit vector.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)      { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int)    { b[i/64] &^= 1 << (i % 64) }
func (b bitset) get(i int) bool { return b[i/64]&(1<<(i%64)) != 0 }
func (b bitset) popcount() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// popcountAnd returns |a ∧ b|.
func popcountAnd(a, b bitset) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i])
	}
	return n
}

// popcountAndNot returns |a ∧ b ∧ ¬c|.
func popcountAndNot(a, b, c bitset) int {
	n := 0
	for i := range a {
		n += bits.OnesCount64(a[i] & b[i] &^ c[i])
	}
	return n
}

// bucket holds the per-bucket fields of §6.
type bucket struct {
	numNVMKeys int
	pop        bitset // approximate key popularity (set on Get, cleared on eviction)
	nvm        bitset // keys present on NVM
	flash      bitset // keys with any version on flash
}

// Stats is the weighted estimate for a candidate compaction key range,
// feeding the MSC formula (Eq. 1).
type Stats struct {
	Tn       float64 // estimated NVM objects in range
	Tf       float64 // estimated flash objects in range
	HotNVM   float64 // estimated popular NVM objects in range
	Overlap  float64 // estimated keys present on both tiers
	HotFlash float64 // estimated popular objects in range with no NVM copy (promotion targeting)
}

// P returns the fraction of popular objects in the NVM range.
func (s Stats) P() float64 {
	if s.Tn <= 0 {
		return 0
	}
	return s.HotNVM / s.Tn
}

// O returns the fraction of flash objects that also appear in the NVM range.
func (s Stats) O() float64 {
	if s.Tf <= 0 {
		return 0
	}
	return s.Overlap / s.Tf
}

// Benefit approximates the summed coldness of NVM objects in the range:
// cold keys (pop bit 0) contribute 1.0; hot keys contribute 1/(MaxClock+1),
// the coldness a fully-hot clock value would have (§6's binary
// approximation of the clock value).
func (s Stats) Benefit() float64 {
	return (s.Tn - s.HotNVM) + 0.25*s.HotNVM
}

// Map is a partition's bucket array.
type Map struct {
	bucketKeys int
	keySpace   uint64
	buckets    []bucket
}

// New creates buckets covering key indices [0, keySpace) with bucketKeys
// keys per bucket.
func New(keySpace uint64, bucketKeys int) *Map {
	if bucketKeys < 1 {
		bucketKeys = 1
	}
	n := int((keySpace + uint64(bucketKeys) - 1) / uint64(bucketKeys))
	if n < 1 {
		n = 1
	}
	m := &Map{bucketKeys: bucketKeys, keySpace: keySpace, buckets: make([]bucket, n)}
	for i := range m.buckets {
		m.buckets[i].pop = newBitset(bucketKeys)
		m.buckets[i].nvm = newBitset(bucketKeys)
		m.buckets[i].flash = newBitset(bucketKeys)
	}
	return m
}

// NumBuckets returns the bucket count.
func (m *Map) NumBuckets() int { return len(m.buckets) }

func (m *Map) locate(idx uint64) (*bucket, int) {
	b := int(idx) / m.bucketKeys
	if b >= len(m.buckets) {
		b = len(m.buckets) - 1
	}
	return &m.buckets[b], int(idx) % m.bucketKeys
}

// OnPut records a fresh insert of key idx to NVM. In-place updates of keys
// already on NVM are no-ops here (the bit is already set). The flash bit is
// left alone: a key may be resident on both tiers — an update shadowing its
// demoted version, or a promotion by copy whose identical flash version
// stays behind — until a merge of its range drops the flash version
// (OnFlashDelete) or demotes the NVM one (OnDemote).
func (m *Map) OnPut(idx uint64) {
	b, bit := m.locate(idx)
	if !b.nvm.get(bit) {
		b.nvm.set(bit)
		b.numNVMKeys++
	}
}

// OnNVMDelete records removal of key idx from NVM (client delete).
func (m *Map) OnNVMDelete(idx uint64) {
	b, bit := m.locate(idx)
	if b.nvm.get(bit) {
		b.nvm.clear(bit)
		b.numNVMKeys--
	}
}

// OnDemote records a compaction moving key idx from NVM to flash.
func (m *Map) OnDemote(idx uint64) {
	b, bit := m.locate(idx)
	if b.nvm.get(bit) {
		b.nvm.clear(bit)
		b.numNVMKeys--
	}
	b.flash.set(bit)
}

// OnFlashDelete records that no version of key idx remains on flash
// (tombstone merge or client delete of a flash key).
func (m *Map) OnFlashDelete(idx uint64) {
	b, bit := m.locate(idx)
	b.flash.clear(bit)
}

// OnHot marks key idx as popular (set by Gets, §6).
func (m *Map) OnHot(idx uint64) {
	b, bit := m.locate(idx)
	b.pop.set(bit)
}

// OnCold clears key idx's popularity (tracker eviction).
func (m *Map) OnCold(idx uint64) {
	b, bit := m.locate(idx)
	b.pop.clear(bit)
}

// Estimate computes the weighted bucket statistics for the candidate key
// range [lo, hi) in key-index space. Each overlapped bucket contributes its
// whole-bucket counters scaled by the overlapped fraction of its span —
// the paper's approximation, deliberately cheaper than exact per-key
// counting (§6's worked example with weights 0.75 and 0.25).
func (m *Map) Estimate(lo, hi uint64) Stats {
	var s Stats
	if hi <= lo {
		return s
	}
	bk := uint64(m.bucketKeys)
	first := int(lo / bk)
	last := int((hi - 1) / bk)
	if last >= len(m.buckets) {
		last = len(m.buckets) - 1
	}
	for bi := first; bi <= last; bi++ {
		bStart := uint64(bi) * bk
		bEnd := bStart + bk
		oLo, oHi := lo, hi
		if oLo < bStart {
			oLo = bStart
		}
		if oHi > bEnd {
			oHi = bEnd
		}
		w := float64(oHi-oLo) / float64(bk)
		b := &m.buckets[bi]
		s.Tn += w * float64(b.numNVMKeys)
		s.Tf += w * float64(b.flash.popcount())
		s.HotNVM += w * float64(popcountAnd(b.pop, b.nvm))
		s.Overlap += w * float64(popcountAnd(b.nvm, b.flash))
		s.HotFlash += w * float64(popcountAndNot(b.pop, b.flash, b.nvm))
	}
	return s
}

// NVMKeyCount returns the total NVM keys tracked across all buckets
// (consistency checks in tests).
func (m *Map) NVMKeyCount() int {
	n := 0
	for i := range m.buckets {
		n += m.buckets[i].numNVMKeys
	}
	return n
}

// FlashKeyCount returns the total flash-resident keys across all buckets.
func (m *Map) FlashKeyCount() int {
	n := 0
	for i := range m.buckets {
		n += m.buckets[i].flash.popcount()
	}
	return n
}
