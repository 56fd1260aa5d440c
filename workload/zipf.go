// Package workload generates the request streams of the paper's
// evaluation: the YCSB core workloads A–F over zipfian/uniform/latest key
// distributions (Table 4), zipf-parameter sweeps (Fig 11), and synthetic
// equivalents of the three Twitter production traces (Table 5) matching
// their published read:write ratios, key skew, and object sizes.
package workload

import (
	"math"
	"math/rand"
)

// Zipfian draws ranks from a zipf distribution with parameter theta, using
// the Gray et al. rejection-free method YCSB uses, then scrambles ranks
// across the key space with an FNV hash so popular keys are spread out
// (YCSB's "scrambled zipfian").
type Zipfian struct {
	n         int
	theta     float64
	alpha     float64
	zetan     float64
	eta       float64
	zeta2     float64
	rank1     float64 // 1 + 0.5^theta: uz below it and ≥ 1 draws rank 1
	scrambled bool
}

// NewZipfian builds a generator over [0, n) with skew theta (YCSB default
// 0.99). Larger theta is more skewed; theta must be in (0, 1) ∪ (1, ∞)
// — for theta == 1 pass 0.999.
func NewZipfian(n int, theta float64, scrambled bool) *Zipfian {
	if n < 1 {
		n = 1
	}
	z := &Zipfian{n: n, theta: theta, scrambled: scrambled}
	z.zetan = zeta(n, theta)
	z.zeta2 = zeta(2, theta)
	z.rank1 = 1.0 + math.Pow(0.5, theta)
	z.alpha = 1.0 / (1.0 - theta)
	z.eta = (1 - math.Pow(2.0/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	var sum float64
	for i := 1; i <= n; i++ {
		sum += 1 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws a key index in [0, n).
func (z *Zipfian) Next(rng *rand.Rand) int {
	u := rng.Float64()
	uz := u * z.zetan
	var rank int
	switch {
	case uz < 1.0:
		rank = 0
	case uz < z.rank1:
		rank = 1
	default:
		rank = int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	}
	if rank >= z.n {
		rank = z.n - 1
	}
	if !z.scrambled {
		return rank
	}
	return int(fnv64(uint64(rank)) % uint64(z.n))
}

// fnv64 hashes an integer (for scrambling and key spreading).
func fnv64(x uint64) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= x & 0xff
		h *= 1099511628211
		x >>= 8
	}
	return h
}

// Uniform draws uniformly from [0, n).
type Uniform struct{ n int }

// NewUniform builds a uniform generator over [0, n).
func NewUniform(n int) *Uniform {
	if n < 1 {
		n = 1
	}
	return &Uniform{n}
}

// Next draws a key index.
func (u *Uniform) Next(rng *rand.Rand) int { return rng.Intn(u.n) }

// Latest skews toward recently inserted keys (YCSB-D): it draws a zipfian
// offset back from the newest key.
type Latest struct {
	z *Zipfian
	n func() int // current key count (grows with inserts)
}

// NewLatest builds a latest-distribution generator; newestFn reports the
// current number of keys.
func NewLatest(initial int, theta float64, newestFn func() int) *Latest {
	return &Latest{z: NewZipfian(initial, theta, false), n: newestFn}
}

// Next draws a key index, biased to recent inserts.
func (l *Latest) Next(rng *rand.Rand) int {
	n := l.n()
	off := l.z.Next(rng)
	idx := n - 1 - off
	if idx < 0 {
		idx = 0
	}
	return idx
}

// KeyOf formats key index i as the canonical fixed-width key. Fixed-width
// decimal keys make lexicographic and numeric order coincide, which the
// engine's bucket statistics rely on. Formatted by hand: the generator
// emits one key per operation, and fmt.Sprintf was the single largest
// allocation site in the whole harness.
func KeyOf(i int) []byte { return appendKey(make([]byte, 0, keyLen), i) }

// keyLen is the length of every KeyOf key.
const keyLen = 16

// appendKey appends KeyOf(i) to dst.
func appendKey(dst []byte, i int) []byte {
	dst = append(dst, "user000000000000"...)
	b := dst[len(dst)-keyLen:]
	for j := keyLen - 1; j >= 4; j-- {
		b[j] = byte('0' + i%10)
		i /= 10
	}
	return dst
}

// IndexOf inverts KeyOf (for tests).
func IndexOf(key []byte) int {
	n := 0
	for _, b := range key {
		if b >= '0' && b <= '9' {
			n = n*10 + int(b-'0')
		}
	}
	return n
}
