package workload

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// letters fills eight letters at once; each must be what the bytewise
// definition, 'a' + b·26/256 for byte b of the word, gives.
func TestLettersMatchesBytewise(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	words := []uint64{0, ^uint64(0), 0x0123456789ABCDEF, 0xFF00FF00FF00FF00, 0x00FF00FF00FF00FF}
	for i := 0; i < 100000; i++ {
		words = append(words, rng.Uint64())
	}
	for _, x := range words {
		got := letters(x)
		for j := 0; j < 8; j++ {
			b := x >> (8 * j) & 0xFF
			if want := 'a' + b*26>>8; got>>(8*j)&0xFF != want {
				t.Fatalf("letters(%#x) byte %d = %#x, want %#x", x, j, got>>(8*j)&0xFF, want)
			}
		}
	}
}

// Values are lowercase letters, each about as frequent as any other: the
// mapping gives 22 letters 10 of the 256 byte values and 4 letters 9.
func TestValueLetterShares(t *testing.T) {
	cfg, _ := YCSB('A', 1000, 1024, 0, 1)
	g := NewGenerator(cfg)
	var counts [256]int
	total := 0
	for total < 1<<20 {
		for _, b := range g.Next().Value {
			counts[b]++
			total++
		}
	}
	for b, n := range counts {
		if n == 0 {
			continue
		}
		if b < 'a' || b > 'z' {
			t.Fatalf("value byte %#x outside 'a'..'z'", b)
		}
		if share := float64(n) / float64(total) * 26; math.Abs(share-1) > 0.1 {
			t.Fatalf("letter %c has %.3f of its fair share 1/26", b, share)
		}
	}
}

// The value bytes are a pure function of (seed, config): a digest of seed
// 1's first 64 load values pins them, for a fixed size and for a log-normal
// one.
func TestValueDigest(t *testing.T) {
	ycsb, _ := YCSB('A', 64, 1024, 0, 1)
	twitter, _ := Twitter("cluster39", 64, 1)
	for _, c := range []struct {
		cfg  Config
		want string
	}{
		{ycsb, "5a54c37bc4855257616e9d143ca13d1978b28d7c686575aa4194d436fed55b33"},
		{twitter, "21782603391d53d29022cd1c4af21a312ac65055a2932cd0d9566cc7acf752fb"},
	} {
		g := NewGenerator(c.cfg)
		h := sha256.New()
		for i := 0; i < 64; i++ {
			v := g.LoadValue(i)
			h.Write([]byte{byte(len(v) >> 8), byte(len(v))})
			h.Write(v)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != c.want {
			t.Errorf("%s: digest of 64 values %s, want %s", c.cfg.Name, got, c.want)
		}
	}
}
