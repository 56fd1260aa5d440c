package obs

import (
	"sort"
	"strings"
	"sync"
	"time"
)

// Stage labels where a traced op's time went, in op order.
type Stage int

const (
	// StageParse is RESP command parsing (only counted when the command
	// was already buffered — socket idle time is not parse time).
	StageParse Stage = iota
	// StageDispatch is the engine call as seen by the server: for reads
	// this IS the tier read; for writes it wraps the queue/apply/WAL
	// stages below.
	StageDispatch
	// StageQueueWait is time a write waited for a batch leader (itself or
	// another writer) to start its mutation, after finding its partition
	// busy.
	StageQueueWait
	// StageApply is the in-critical-section mutation (slab/B-tree work).
	StageApply
	// StageWALAppend is framing + appending the WAL group record.
	StageWALAppend
	// StageFsyncWait is blocking in WaitDurable for the group fsync.
	StageFsyncWait
	// StageFlush is the reply's share of the connection's write-buffer
	// flush (pipelined replies share one flush; each gets the full
	// flush duration, since each waited for it).
	StageFlush
	// NumStages bounds per-span stage arrays.
	NumStages
)

var stageNames = [NumStages]string{
	"parse", "dispatch", "queue_wait", "apply", "wal_append", "fsync_wait", "flush",
}

func (s Stage) String() string {
	if s < 0 || s >= NumStages {
		return "?"
	}
	return stageNames[s]
}

// traceKeyMax bounds the key bytes a span retains (allocation-bounded).
const traceKeyMax = 48

// Span accumulates one traced op's per-stage durations. Spans come from
// Sampler.Sample (nil when the op is not sampled — every method is
// nil-receiver-safe so call sites stay branch-light) and return to the
// tracer's pool at Finish/Drop.
type Span struct {
	start  time.Time
	op     string
	key    [traceKeyMax]byte
	keyLen int
	trunc  bool
	tier   string
	stages [NumStages]time.Duration
}

// Stage adds d to stage st.
func (sp *Span) Stage(st Stage, d time.Duration) {
	if sp == nil {
		return
	}
	sp.stages[st] += d
}

// SetOp records the op name (a static string) and key (copied, truncated to
// traceKeyMax bytes).
func (sp *Span) SetOp(op string, key []byte) {
	if sp == nil {
		return
	}
	sp.op = op
	n := copy(sp.key[:], key)
	sp.keyLen = n
	sp.trunc = len(key) > n
}

// SetTier annotates a read span with the serving tier (a static string).
func (sp *Span) SetTier(tier string) {
	if sp == nil {
		return
	}
	sp.tier = tier
}

// SpanRecord is a finished span as retained by the SLOWLOG and recent rings.
type SpanRecord struct {
	ID     int64 // monotonically increasing finish sequence
	When   time.Time
	Op     string
	Key    string
	Trunc  bool // Key was truncated to traceKeyMax bytes
	Tier   string
	Total  time.Duration
	Stages [NumStages]time.Duration
}

// StageSummary renders the non-zero stages, e.g.
// "parse=2µs dispatch=14µs flush=9µs".
func (r SpanRecord) StageSummary() string {
	var b strings.Builder
	for i, d := range r.Stages {
		if d == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(stageNames[i])
		b.WriteByte('=')
		b.WriteString(d.String())
	}
	if r.Tier != "" {
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString("tier=")
		b.WriteString(r.Tier)
	}
	return b.String()
}

// Tracer samples ops (1 in every), hands out pooled spans, and retains
// finished spans in two fixed-size rings: the slowest ops (SLOWLOG) and the
// most recent ops (TRACE). Sampling is a goroutine-local countdown
// (Sampler); the rings take a mutex only on the sampled finish path.
type Tracer struct {
	every int64
	pool  sync.Pool

	mu      sync.Mutex
	seq     int64
	recent  []SpanRecord // ring of last finished spans
	rpos    int
	rn      int
	slow    []SpanRecord // sorted: Total desc, ID asc on ties
	slowCap int
}

// NewTracer samples one op in every (≤ 0 disables sampling; 1 traces every
// op), keeping the slowCap slowest and recentCap most recent finished spans.
func NewTracer(every, slowCap, recentCap int) *Tracer {
	if slowCap <= 0 {
		slowCap = 32
	}
	if recentCap <= 0 {
		recentCap = 64
	}
	t := &Tracer{
		every:   int64(every),
		recent:  make([]SpanRecord, recentCap),
		slowCap: slowCap,
	}
	t.pool.New = func() any { return new(Span) }
	return t
}

// Sampler is one goroutine's sampling countdown over a shared Tracer: it
// samples 1 in every of its own calls, and no counter is shared between
// goroutines. A server connection keeps one, so sampling costs its op loop
// a decrement. The zero value never samples.
type Sampler struct {
	t    *Tracer
	left int64
}

// NewSampler returns a countdown whose first span is its every-th Sample.
func (t *Tracer) NewSampler() Sampler {
	if t == nil {
		return Sampler{}
	}
	return Sampler{t: t, left: t.every}
}

// Sample returns a started span for 1 in every calls, nil otherwise.
func (s *Sampler) Sample() *Span {
	if s.t == nil || s.t.every <= 0 {
		return nil
	}
	if s.left--; s.left > 0 {
		return nil
	}
	s.left = s.t.every
	sp := s.t.pool.Get().(*Span)
	*sp = Span{start: time.Now()}
	return sp
}

// Drop abandons a sampled span without recording it (e.g. the op was folded
// into a deferred batch that is traced as a unit instead).
func (t *Tracer) Drop(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.pool.Put(sp)
}

// Finish records a sampled span with total = time since its Sample and
// recycles it. The span must not be used afterwards.
func (t *Tracer) Finish(sp *Span) {
	if t == nil || sp == nil {
		return
	}
	t.finish(sp, time.Since(sp.start))
}

func (t *Tracer) finish(sp *Span, total time.Duration) {
	rec := SpanRecord{
		When:   sp.start,
		Op:     sp.op,
		Key:    string(sp.key[:sp.keyLen]),
		Trunc:  sp.trunc,
		Tier:   sp.tier,
		Total:  total,
		Stages: sp.stages,
	}
	t.pool.Put(sp)

	t.mu.Lock()
	t.seq++
	rec.ID = t.seq
	t.recent[t.rpos] = rec
	t.rpos = (t.rpos + 1) % len(t.recent)
	if t.rn < len(t.recent) {
		t.rn++
	}
	if len(t.slow) < t.slowCap || rec.Total > t.slow[len(t.slow)-1].Total {
		i := sort.Search(len(t.slow), func(i int) bool { return t.slow[i].Total < rec.Total })
		t.slow = append(t.slow, SpanRecord{})
		copy(t.slow[i+1:], t.slow[i:])
		t.slow[i] = rec
		if len(t.slow) > t.slowCap {
			t.slow = t.slow[:t.slowCap]
		}
	}
	t.mu.Unlock()
}

// Slow returns up to n SLOWLOG entries, slowest first (ties: earlier finish
// first). n ≤ 0 returns all retained entries.
func (t *Tracer) Slow(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > len(t.slow) {
		n = len(t.slow)
	}
	return append([]SpanRecord(nil), t.slow[:n]...)
}

// SlowLen returns the number of retained SLOWLOG entries.
func (t *Tracer) SlowLen() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.slow)
}

// SlowReset clears the SLOWLOG ring (the recent ring and ID sequence keep
// going).
func (t *Tracer) SlowReset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.slow = t.slow[:0]
	t.mu.Unlock()
}

// Recent returns up to n most recently finished spans, newest first.
func (t *Tracer) Recent(n int) []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n <= 0 || n > t.rn {
		n = t.rn
	}
	out := make([]SpanRecord, 0, n)
	for i := 1; i <= n; i++ {
		idx := t.rpos - i
		if idx < 0 {
			idx += len(t.recent)
		}
		out = append(out, t.recent[idx])
	}
	return out
}
