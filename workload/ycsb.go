package workload

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
)

// OpKind is a request type.
type OpKind int

const (
	// OpRead is a point lookup.
	OpRead OpKind = iota
	// OpUpdate overwrites an existing key.
	OpUpdate
	// OpInsert writes a brand-new key.
	OpInsert
	// OpScan is a range query.
	OpScan
	// OpRMW is a read-modify-write (YCSB-F).
	OpRMW
	// OpDelete removes a key (tombstone churn; not part of the core YCSB
	// letters, used by the delete-heavy mix).
	OpDelete
)

// String names the op.
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpUpdate:
		return "update"
	case OpInsert:
		return "insert"
	case OpScan:
		return "scan"
	case OpRMW:
		return "rmw"
	case OpDelete:
		return "delete"
	}
	return "unknown"
}

// Op is one generated request.
type Op struct {
	Kind    OpKind
	Key     []byte
	Value   []byte // for updates/inserts/RMW; nil in a Shard queue until FillValue
	ScanLen int    // for scans

	// valueSeed is the seed of Value's bytes, drawn from the generator's
	// stream when the op was; FillValue turns it into the bytes.
	valueSeed uint64
}

// hasValue reports whether ops of this kind write a value.
func (k OpKind) hasValue() bool {
	return k == OpUpdate || k == OpInsert || k == OpRMW
}

// Mix is the operation proportions of a workload.
type Mix struct {
	Read, Update, Insert, Scan, RMW, Delete float64
}

// Distribution selects the key popularity model.
type Distribution int

const (
	// DistZipfian is scrambled zipfian (YCSB default, θ = 0.99).
	DistZipfian Distribution = iota
	// DistUniform is uniform.
	DistUniform
	// DistLatest skews to recently inserted keys (YCSB-D).
	DistLatest
)

// Config fully describes a workload.
type Config struct {
	Name  string
	Keys  int // initial dataset size
	Mix   Mix
	Dist  Distribution
	Theta float64 // zipfian parameter
	// ValueSize is the object size; if ValueSizeSigma > 0, sizes are
	// log-normal-ish around ValueSize (Twitter traces).
	ValueSize      int
	ValueSizeSigma float64
	MaxScanLen     int
	Seed           int64
}

// YCSB returns the standard workload configs of Table 4. w is 'A'..'F'.
// theta is the zipfian parameter (pass 0 for the YCSB default 0.99).
func YCSB(w byte, keys, valueSize int, theta float64, seed int64) (Config, error) {
	if theta == 0 {
		theta = 0.99
	}
	c := Config{
		Name:       fmt.Sprintf("ycsb-%c", w),
		Keys:       keys,
		Dist:       DistZipfian,
		Theta:      theta,
		ValueSize:  valueSize,
		MaxScanLen: 100,
		Seed:       seed,
	}
	switch w {
	case 'A', 'a':
		c.Mix = Mix{Read: 0.5, Update: 0.5}
	case 'B', 'b':
		c.Mix = Mix{Read: 0.95, Update: 0.05}
	case 'C', 'c':
		c.Mix = Mix{Read: 1.0}
	case 'D', 'd':
		c.Mix = Mix{Read: 0.95, Insert: 0.05}
		c.Dist = DistLatest
	case 'E', 'e':
		c.Mix = Mix{Scan: 0.95, Insert: 0.05}
	case 'F', 'f':
		c.Mix = Mix{Read: 0.5, RMW: 0.5}
	default:
		return c, fmt.Errorf("workload: unknown YCSB workload %q", w)
	}
	return c, nil
}

// DeleteHeavy returns a YCSB-style delete-heavy churn mix (~25% DEL): reads
// dominate the remainder, inserts replace the deleted population so the
// dataset size stays roughly stable, and the zipfian draw means hot keys
// are deleted and re-created continuously — the workload that exercises
// tombstone annihilation, tracker eviction on delete, and NVM space
// reclaim. theta 0 takes the YCSB default 0.99.
func DeleteHeavy(keys, valueSize int, theta float64, seed int64) Config {
	if theta == 0 {
		theta = 0.99
	}
	return Config{
		Name:      "delete-heavy",
		Keys:      keys,
		Mix:       Mix{Read: 0.40, Update: 0.10, Insert: 0.25, Delete: 0.25},
		Dist:      DistZipfian,
		Theta:     theta,
		ValueSize: valueSize,
		Seed:      seed,
	}
}

// Twitter returns a synthetic equivalent of one of the paper's three
// production traces (Table 5 / Yang et al. OSDI'20). name is "cluster39"
// (write-heavy, uniform writes), "cluster19" (mixed, zipf reads + uniform
// writes, tiny 102 B objects), or "cluster51" (read-heavy, zipfian, 370 B).
func Twitter(name string, keys int, seed int64) (Config, error) {
	c := Config{Name: name, Keys: keys, Seed: seed, MaxScanLen: 0}
	switch name {
	case "cluster39":
		c.Mix = Mix{Read: 0.06, Update: 0.94}
		c.Dist = DistUniform
		c.ValueSize = 230
		c.ValueSizeSigma = 0.3
	case "cluster19":
		c.Mix = Mix{Read: 0.75, Update: 0.25}
		c.Dist = DistZipfian
		c.Theta = 0.9
		c.ValueSize = 102
		c.ValueSizeSigma = 0.2
	case "cluster51":
		c.Mix = Mix{Read: 0.90, Update: 0.10}
		c.Dist = DistZipfian
		c.Theta = 1.2
		c.ValueSize = 370
		c.ValueSizeSigma = 0.3
	default:
		return c, fmt.Errorf("workload: unknown Twitter trace %q", name)
	}
	return c, nil
}

// Generator produces an operation stream from a Config.
type Generator struct {
	cfg      Config
	rng      *rand.Rand
	zipf     *Zipfian
	uni      *Uniform
	latest   *Latest
	inserted int
}

// NewGenerator builds a generator. The caller should first load the initial
// dataset via LoadKey/LoadValue for i in [0, cfg.Keys).
func NewGenerator(cfg Config) *Generator {
	g := &Generator{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	theta := cfg.Theta
	if theta == 0 {
		theta = 0.99
	}
	switch cfg.Dist {
	case DistUniform:
		g.uni = NewUniform(cfg.Keys)
	case DistLatest:
		g.latest = NewLatest(cfg.Keys, theta, func() int { return g.cfg.Keys + g.inserted })
	default:
		g.zipf = NewZipfian(cfg.Keys, theta, true)
	}
	return g
}

// Keys returns the current dataset size (initial + inserts).
func (g *Generator) Keys() int { return g.cfg.Keys + g.inserted }

// LoadKey returns the i-th key for the load phase.
func (g *Generator) LoadKey(i int) []byte { return KeyOf(i) }

// LoadValue returns a deterministic value for the i-th key. A tiny inline
// splitmix64 generator replaces the seeded rand.Rand the harness used to
// build per key: rand's 607-word seeding dominated whole-benchmark CPU.
func (g *Generator) LoadValue(i int) []byte {
	r := miniRNG(uint64(g.cfg.Seed) ^ uint64(i)*0x9E3779B97F4A7C15)
	return g.value(&r, nil)
}

// FillValue generates op's value — a pure function of the seed drawn with
// the op and the generator's configuration — into buf's storage (grown when
// too small), points op.Value at it, and returns it for reuse as the next
// call's buf. It does nothing for kinds that write no value. It reads only
// the configuration, so workers draining different Shard queues may call it
// concurrently, each with its own buf.
func (g *Generator) FillValue(op *Op, buf []byte) []byte {
	if !op.Kind.hasValue() {
		return buf
	}
	r := miniRNG(op.valueSeed)
	op.Value = g.value(&r, buf)
	return op.Value
}

// value generates a value from r's stream into buf's storage when it is
// large enough, into a fresh allocation otherwise.
func (g *Generator) value(r *miniRNG, buf []byte) []byte {
	size := g.cfg.ValueSize
	if size <= 0 {
		size = 1024
	}
	if g.cfg.ValueSizeSigma > 0 {
		f := 1 + g.cfg.ValueSizeSigma*r.norm()
		if f < 0.3 {
			f = 0.3
		}
		if f > 3 {
			f = 3
		}
		size = int(float64(size) * f)
		if size < 16 {
			size = 16
		}
	}
	if cap(buf) < size {
		buf = make([]byte, size)
	}
	v := buf[:size]
	// Eight letters per PRNG step, stored as one word.
	i := 0
	for ; i+8 <= len(v); i += 8 {
		binary.LittleEndian.PutUint64(v[i:], letters(r.next()))
	}
	if i < len(v) {
		var tail [8]byte
		binary.LittleEndian.PutUint64(tail[:], letters(r.next()))
		copy(v[i:], tail[:])
	}
	return v
}

// letters maps each byte b of x to the letter 'a' + b·26/256, all eight at
// once: the even and the odd bytes each sit alone in a 16-bit lane, where
// b·26 ≤ 6630 cannot carry into the next lane, and the lane's high byte is
// the letter's offset.
func letters(x uint64) uint64 {
	const lanes = 0x00FF00FF00FF00FF
	even := ((x & lanes) * 26 >> 8) & lanes
	odd := ((x >> 8 & lanes) * 26) &^ lanes
	return (even | odd) + 0x6161616161616161
}

// miniRNG is a splitmix64 PRNG: strong enough for filler values and object
// sizes, and constructible per key for free.
type miniRNG uint64

func (r *miniRNG) next() uint64 {
	*r += 0x9E3779B97F4A7C15
	z := uint64(*r)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// norm draws a standard normal deviate via Box–Muller.
func (r *miniRNG) norm() float64 {
	u1 := (float64(r.next()>>11) + 0.5) / (1 << 53)
	u2 := float64(r.next()>>11) / (1 << 53)
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// nextKeyIdx draws a key index per the distribution.
func (g *Generator) nextKeyIdx() int {
	switch {
	case g.uni != nil:
		return g.uni.Next(g.rng)
	case g.latest != nil:
		return g.latest.Next(g.rng)
	default:
		return g.zipf.Next(g.rng)
	}
}

// Next produces the next operation, its value (if any) freshly allocated.
func (g *Generator) Next() Op {
	op := g.next(nil)
	g.FillValue(&op, nil)
	return op
}

// next draws the next operation from the generator's stream: kind, key, and
// for a write the seed of its value, whose bytes FillValue generates later.
// The key is appended to *keys, or freshly allocated when keys is nil.
func (g *Generator) next(keys *[]byte) Op {
	r := g.rng.Float64()
	m := g.cfg.Mix
	switch {
	case r < m.Read:
		return Op{Kind: OpRead, Key: keyIn(keys, g.nextKeyIdx())}
	case r < m.Read+m.Update:
		return Op{Kind: OpUpdate, Key: keyIn(keys, g.nextKeyIdx()), valueSeed: g.rng.Uint64()}
	case r < m.Read+m.Update+m.Insert:
		idx := g.cfg.Keys + g.inserted
		g.inserted++
		return Op{Kind: OpInsert, Key: keyIn(keys, idx), valueSeed: g.rng.Uint64()}
	case r < m.Read+m.Update+m.Insert+m.Scan:
		ln := 1
		if g.cfg.MaxScanLen > 1 {
			ln = 1 + g.rng.Intn(g.cfg.MaxScanLen)
		}
		return Op{Kind: OpScan, Key: keyIn(keys, g.nextKeyIdx()), ScanLen: ln}
	case r < m.Read+m.Update+m.Insert+m.Scan+m.Delete:
		return Op{Kind: OpDelete, Key: keyIn(keys, g.nextKeyIdx())}
	default:
		return Op{Kind: OpRMW, Key: keyIn(keys, g.nextKeyIdx()), valueSeed: g.rng.Uint64()}
	}
}

// keyIn formats KeyOf(i) at the end of *arena and returns it, capped so
// that an append to it cannot reach the next key. A nil arena allocates.
func keyIn(arena *[]byte, i int) []byte {
	if arena == nil {
		return KeyOf(i)
	}
	a := appendKey(*arena, i)
	*arena = a
	return a[len(a)-keyLen : len(a) : len(a)]
}

// Config returns the generator's configuration.
func (g *Generator) Config() Config { return g.cfg }

// Shard draws n operations from gen and routes each to one of parts queues
// via route (typically DB.PartitionOf). Generation stays serial — the
// generator is not safe for concurrent use and op order must be
// deterministic — but the returned queues preserve per-shard issue order,
// so shared-nothing partition workers can consume them concurrently.
//
// The queued ops carry no Value: a write's value is seeded here, in stream
// order, and its bytes are generated at dispatch by Generator.FillValue into
// a buffer the driver reuses — a queue of n ops is n small structs, not n
// values (the engine copies what it keeps). The ops' keys share one
// allocation.
//
// An out-of-range route result is a routing bug in the caller's engine and
// returns an error: silently rerouting (say, to queue 0) would execute the
// op on a partition that doesn't own the key, corrupting the shared-nothing
// workload split that every driver invariant rests on.
func Shard(gen *Generator, n, parts int, route func(key []byte) int) ([][]Op, error) {
	queues := make([][]Op, parts)
	for i := range queues {
		// Pre-size for an even split, plus slack for skewed routing.
		queues[i] = make([]Op, 0, n/parts+n/(parts*4)+1)
	}
	keys := make([]byte, 0, n*keyLen) // one arena for every op's key
	for i := 0; i < n; i++ {
		op := gen.next(&keys)
		pi := route(op.Key)
		if pi < 0 || pi >= parts {
			return nil, fmt.Errorf("workload: route(%q) = %d outside [0, %d) — engine routing bug", op.Key, pi, parts)
		}
		queues[pi] = append(queues[pi], op)
	}
	return queues, nil
}
