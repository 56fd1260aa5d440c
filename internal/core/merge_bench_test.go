package core

import (
	"runtime"
	"testing"
)

// mergeRoundRig drives the compaction merge/commit stage alone, in its
// steady state: one partition whose flash log is a single table of
// mergeRigRecs records at 1 KiB, of which every round replaces ~5 % — the
// shape of a paper-ycsb-a round, which merges tens of records into one
// table of several hundred. dirty overwrites the round's keys (they land in
// NVM); round demotes them all into the table through mergeRound, the one
// round both compaction modes run (inline here: the rig's DB is
// CompactionSync).
type mergeRoundRig struct {
	db  *DB
	p   *partition
	gen int // value generation, so every round writes new bytes
}

const (
	mergeRigRecs  = 1500
	mergeRigEvery = 20 // one key in 20 is replaced per round
)

func newMergeRoundRig(tb testing.TB) *mergeRoundRig {
	tb.Helper()
	o := testOptions()
	o.NVMBudget = 64 << 20 // never crosses a watermark: rounds run only when asked
	o.TargetSSTBytes = 4 << 20
	o.KeySpace = 1 << 12
	db, err := Open(o)
	if err != nil {
		tb.Fatal(err)
	}
	r := &mergeRoundRig{db: db, p: db.parts[0]}
	for i := 0; i < mergeRigRecs; i++ {
		if _, err := db.Put(key(i), val(i, 1024)); err != nil {
			tb.Fatal(err)
		}
	}
	r.round() // everything to flash: the table
	for i := 0; i < 4; i++ {
		r.dirty(tb)
		r.round() // warm-up: scratch, free list and writer pool reach their sizes
	}
	return r
}

func (r *mergeRoundRig) dirty(tb testing.TB) {
	tb.Helper()
	r.gen++
	for i := r.gen % mergeRigEvery; i < mergeRigRecs; i += mergeRigEvery {
		if _, err := r.db.Put(key(i), val(i+r.gen, 1024)); err != nil {
			tb.Fatal(err)
		}
	}
}

// round merges every NVM object into the flash log's tables and returns the
// number of records the merged log holds.
func (r *mergeRoundRig) round() int {
	mergeAll(r.p, true)
	return r.p.man.TotalCount()
}

// tableBytes is the size of the flash log the rounds rewrite.
func (r *mergeRoundRig) tableBytes() int64 { return r.p.man.TotalBytes() }

// BenchmarkMergeRound is the compaction merge/commit stage's own number
// (ROADMAP aim 1): host time and allocation per merged record of one
// steady-state inline round. Only the round is timed, not the puts that set
// it up.
func BenchmarkMergeRound(b *testing.B) {
	r := newMergeRoundRig(b)
	b.ReportAllocs()
	var recs int
	var allocated uint64
	var m0, m1 runtime.MemStats
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		r.dirty(b)
		runtime.ReadMemStats(&m0)
		b.StartTimer()
		recs += r.round()
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
		b.StartTimer()
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(recs), "ns/rec")
	b.ReportMetric(float64(allocated)/float64(recs), "B/rec")
}

// TestMergeRoundAllocBudget pins the single-copy merge's property: once
// warm, a round allocates less than a tenth of the bytes of the table it
// rewrites — the table's index and filter, and small change. (The four-copy
// path allocated more than three times the table per round.)
func TestMergeRoundAllocBudget(t *testing.T) {
	r := newMergeRoundRig(t)
	const rounds = 20
	var allocated uint64
	var m0, m1 runtime.MemStats
	for i := 0; i < rounds; i++ {
		r.dirty(t)
		runtime.ReadMemStats(&m0)
		if got := r.round(); got != mergeRigRecs {
			t.Fatalf("round %d left %d records on flash, want %d", i, got, mergeRigRecs)
		}
		runtime.ReadMemStats(&m1)
		allocated += m1.TotalAlloc - m0.TotalAlloc
	}
	perRound, budget := int64(allocated/rounds), r.tableBytes()/10
	t.Logf("%d B allocated per round over a %d B table", perRound, r.tableBytes())
	if perRound >= budget {
		t.Fatalf("a warm merge round allocates %d B, want < %d B (a tenth of the %d B table)",
			perRound, budget, r.tableBytes())
	}
}
