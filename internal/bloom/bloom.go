// Package bloom implements the bloom filters PrismDB keeps on NVM for every
// flash SST file (§4.1), preventing expensive flash I/O for absent keys.
//
// The implementation follows the standard partitioned double-hashing scheme
// (Kirsch–Mitzenmacher): two 64-bit FNV-derived hashes g1, g2 simulate k
// hash functions as g1 + i·g2.
package bloom

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Filter is a serializable bloom filter. The zero value is unusable; build
// with New or deserialize with FromBytes.
type Filter struct {
	bits []byte
	k    uint32
	m    uint64 // number of bits
	n    uint64 // keys added
}

// New creates a filter sized for the expected number of keys at the given
// false-positive rate. fpRate is clamped to [1e-6, 0.5].
func New(expectedKeys int, fpRate float64) *Filter {
	if expectedKeys < 1 {
		expectedKeys = 1
	}
	if fpRate < 1e-6 {
		fpRate = 1e-6
	}
	if fpRate > 0.5 {
		fpRate = 0.5
	}
	// m = -n·ln(p)/ln(2)^2 ; k = m/n·ln(2)
	m := uint64(math.Ceil(-float64(expectedKeys) * math.Log(fpRate) / (math.Ln2 * math.Ln2)))
	if m < 64 {
		m = 64
	}
	k := uint32(math.Round(float64(m) / float64(expectedKeys) * math.Ln2))
	if k < 1 {
		k = 1
	}
	if k > 30 {
		k = 30
	}
	return &Filter{bits: make([]byte, (m+7)/8), k: k, m: m}
}

// hash2 computes two independent 64-bit hashes of key using FNV-1a and a
// salted variant.
func hash2(key []byte) (uint64, uint64) {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var h1 uint64 = offset64
	for _, b := range key {
		h1 ^= uint64(b)
		h1 *= prime64
	}
	// Second hash: run FNV over the first hash's bytes plus the key
	// length, which is independent enough for double hashing.
	var h2 uint64 = offset64 ^ 0x9e3779b97f4a7c15
	var lb [8]byte
	binary.LittleEndian.PutUint64(lb[:], h1^uint64(len(key)))
	for _, b := range lb {
		h2 ^= uint64(b)
		h2 *= prime64
	}
	if h2 == 0 {
		h2 = 1
	}
	return h1, h2
}

// Add inserts a key.
func (f *Filter) Add(key []byte) {
	h1, h2 := hash2(key)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		f.bits[bit/8] |= 1 << (bit % 8)
	}
	f.n++
}

// MayContain reports whether the key may be present. False negatives are
// impossible.
func (f *Filter) MayContain(key []byte) bool {
	h1, h2 := hash2(key)
	for i := uint32(0); i < f.k; i++ {
		bit := (h1 + uint64(i)*h2) % f.m
		if f.bits[bit/8]&(1<<(bit%8)) == 0 {
			return false
		}
	}
	return true
}

// Len returns the number of keys added.
func (f *Filter) Len() int { return int(f.n) }

// SizeBytes returns the in-memory/on-NVM footprint of the filter bits.
func (f *Filter) SizeBytes() int { return len(f.bits) + 16 }

// Bytes serializes the filter: [k u32][m u64][n u64][bits].
func (f *Filter) Bytes() []byte {
	out := make([]byte, 4+8+8+len(f.bits))
	binary.LittleEndian.PutUint32(out[0:], f.k)
	binary.LittleEndian.PutUint64(out[4:], f.m)
	binary.LittleEndian.PutUint64(out[12:], f.n)
	copy(out[20:], f.bits)
	return out
}

// FromBytes deserializes a filter produced by Bytes.
func FromBytes(data []byte) (*Filter, error) {
	if len(data) < 20 {
		return nil, fmt.Errorf("bloom: truncated filter (%d bytes)", len(data))
	}
	f := &Filter{
		k: binary.LittleEndian.Uint32(data[0:]),
		m: binary.LittleEndian.Uint64(data[4:]),
		n: binary.LittleEndian.Uint64(data[12:]),
	}
	// New never writes k > 30; a larger k, or m beyond the bits present,
	// is corruption (and m near 2^64 would wrap the byte count below).
	if f.k == 0 || f.k > 30 || f.m == 0 {
		return nil, fmt.Errorf("bloom: corrupt header k=%d m=%d", f.k, f.m)
	}
	if f.m > uint64(len(data)-20)*8 {
		return nil, fmt.Errorf("bloom: bits truncated: have %d bytes for %d bits", len(data)-20, f.m)
	}
	want := int((f.m + 7) / 8)
	f.bits = make([]byte, want)
	copy(f.bits, data[20:20+want])
	return f, nil
}
