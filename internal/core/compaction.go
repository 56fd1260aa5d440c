package core

import (
	"bytes"
	"fmt"
	"time"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/mapper"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/tracker"
)

// Compaction between the tiers. There are two jobs, each written once and
// run by both compaction modes. The demotion job (demotionJob) frees NVM from
// the high to the low watermark in merge rounds, each merging one
// MSC-selected key range's unpinned NVM objects into its SST files. The
// promotion round (promotionRound) is what the read trigger invokes: it copies
// one range's hot flash objects into NVM without rewriting any SST, and arms
// the demotion job when it runs out of room.
//
// A merge round (mergeRound) has three phases, entered and left with p.mu
// held:
//
//   - prepare: classify the range's NVM objects into demoting and pinned, and
//     pin a slab reclamation epoch, so that every slot the round captured
//     stays readable and unchanged until the round ends (a concurrent
//     overwrite goes copy-on-write, a free is deferred) and an unchanged
//     B-tree loc at commit proves an unchanged record.
//   - execute: readDemoting, readFlash, mergeRange into the output tables
//     (re-encoding only the input blocks the merge changes and copying the
//     rest), man.Apply. Nothing on the NVM side changes: mergeRange records
//     each decision as a commitAction. The flash records are views of the
//     input tables' storage and die with the Apply that retires those
//     tables. A flash page is written only when an object moves into it. A
//     stale flash version under a pinned dirty NVM version dies only when its
//     block is re-encoded for another reason (blockUnchanged says why keeping
//     it is safe and bounded); the flash version of a clean copy (a promoted
//     object no write has touched, see partition.clean) is not stale: a
//     demoting clean copy leaves NVM unwritten, and a pinned one keeps its
//     flash version. A round whose demoting records are all evicted clean
//     copies or tombstones that shadow nothing writes and retires no table,
//     whatever it pins (matchClean).
//   - commit: publish the new manifest to readers, then validate every
//     planned mutation against the live index and apply it — free the slot,
//     drop the index entry, flip buckets and tracker. The frees are one batch
//     of concurrent NVM page writes issued at the commit's start (the round
//     waits for the slowest, not their sum), and the reclaimed space is
//     banked chunk by chunk as compJobs that mature once the frees issued so
//     far have completed; last, unpin the epoch and zero the freed slots.
//
// The order is what makes a failed Apply harmless: until the manifest
// references the output tables nothing has been freed, so the round aborts
// with every record where it was and the DB degrades.
//
// The mode decides one thing: who runs the job and whether it lets go of the
// lock. CompactionAsync runs it on the partition's worker goroutine
// (async.go), which releases p.mu around execute and between commit chunks
// and yields its core as it goes; the per-action validation is what makes
// that safe. CompactionSync runs the same statements straight through on the
// op that crossed the watermark. That op is in the middle of a write batch,
// whose applied mutations are not yet logged, so an inline round never
// releases p.mu and never sleeps: every unlock, yield and park below sits
// behind the mode test.

// maxCompactionRounds bounds one triggered compaction to avoid livelock
// when everything is pinned or the tracker is degenerate.
const maxCompactionRounds = 24

// candRange is a candidate compaction key range: the key span of
// RangeFiles consecutive SST files (§5.2). nil bounds are ±∞.
type candRange struct {
	lo, hi []byte // [lo, hi); nil = unbounded
	tables []*sst.Table
}

// keyIdxBounds maps a candidate range to key-index space for the buckets.
func (p *partition) keyIdxBounds(r candRange) (uint64, uint64) {
	lo := uint64(0)
	hi := p.opts.KeySpace
	if r.lo != nil {
		lo = p.opts.KeyIndex(r.lo)
	}
	if r.hi != nil {
		hi = p.opts.KeyIndex(r.hi)
	}
	if hi > p.opts.KeySpace {
		hi = p.opts.KeySpace
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// buildRanges tiles the key space into candidate ranges from the current
// SST snapshot: window i spans from table i's smallest key (window 0 from
// -∞) to table i+RangeFiles's smallest key (last window to +∞).
// The returned slice aliases the partition's reusable scratch: callers
// must copy out (retainRange) anything they keep past the next call.
func (p *partition) buildRanges(snap []*sst.Table) []candRange {
	rf := p.opts.RangeFiles
	out := p.rangeBuf[:0]
	defer func() { p.rangeBuf = out }()
	if len(snap) == 0 {
		out = append(out, candRange{})
		return out
	}
	if rf > len(snap) {
		rf = len(snap)
	}
	n := len(snap) - rf + 1
	for i := 0; i < n; i++ {
		var r candRange
		if i > 0 {
			r.lo = snap[i].Smallest()
		}
		if i+rf < len(snap) {
			r.hi = snap[i+rf].Smallest()
		}
		r.tables = snap[i : i+rf]
		out = append(out, r)
	}
	return out
}

// maybeCompact triggers a demotion compaction when NVM usage crosses the
// high watermark (§4.2). Called with the partition lock held.
func (p *partition) maybeCompact() {
	if p.usage() >= int64(float64(p.nvmBudget)*p.opts.HighWatermark) {
		p.triggerDemotion()
	}
}

// triggerDemotion starts the demotion job: inline in sync mode, by flagging
// the background worker in async mode, where the trigger returns at once and
// the foreground op's critical section stays short. Called with the partition
// lock held.
func (p *partition) triggerDemotion() {
	if p.opts.CompactionMode == CompactionSync {
		p.demotionJob(p.clk.Now())
		return
	}
	if !p.bg.demotePending && !p.bg.stopping {
		p.bg.demotePending = true
		p.bg.demoteTriggerNs = p.clk.Now()
		p.bg.jobCond.Signal()
	}
}

// triggerPromotion is the read-trigger machine's invocation hook: inline in
// sync mode, enqueued to the background worker in async mode. Called with
// the partition lock held.
func (p *partition) triggerPromotion() {
	if p.opts.CompactionMode == CompactionSync {
		p.promotionRound(p.clk.Now())
		return
	}
	if !p.bg.promotePending && !p.bg.stopping {
		p.bg.promotePending = true
		p.bg.promoteTriggerNs = p.clk.Now()
		p.bg.jobCond.Signal()
	}
}

// demotionJob frees NVM down to the low watermark in rounds of select →
// mergeRound. It runs on its own clock, which starts at triggerNs — the clock
// of the op that armed it, so virtual time does not depend on when a worker
// goroutine got scheduled; its I/O occupies device channels (delaying
// foreground requests), and writes admitted before a round's completion are
// rate-limited through admitWrite. Entered and left with p.mu held.
func (p *partition) demotionJob(triggerNs int64) {
	async := p.opts.CompactionMode == CompactionAsync
	compClk := simdev.NewBGClock()
	compClk.AdvanceTo(triggerNs)
	// The partition's single compaction thread is serial: a new job
	// cannot start before the previous one finished.
	compClk.AdvanceTo(p.compEndAt)
	start := compClk.Now()
	low := int64(float64(p.nvmBudget) * p.opts.LowWatermark)

	// If the pinned set itself exceeds the NVM budget (possible when the
	// pinning threshold is generous relative to the tier split), normal
	// rounds cannot free space; after two no-progress rounds we demote
	// regardless of popularity — space safety beats placement quality.
	// A round whose range held no NVM object at all was a selection miss
	// (the bucket estimate aliases at small scale), and does nothing at all
	// (matchClean): the next round ranks the ranges by the index, pinning
	// still applied. A range whose objects are all pinned is no miss: that
	// is what forcing is for.
	noProgress, missed := 0, false
	for round := 0; round < maxCompactionRounds && p.usage() > low && !p.bg.stopping; round++ {
		force := noProgress >= 2
		r := p.selectRange(compClk, force || missed)
		// The round banks its reclaim into compQueue itself, commit chunk by
		// commit chunk; freed here only drives the progress check.
		freed := p.mergeRound(compClk, r, force)
		missed = len(p.merge.objs)+len(p.merge.pinned) == 0
		p.stats.Compactions++
		if compClk.Now() > p.compEndAt {
			p.compEndAt = compClk.Now()
		}
		if freed > 0 {
			noProgress = 0
		} else {
			noProgress++
			if force {
				break // even forced demotion freed nothing; give up
			}
		}
		if async {
			// Round boundary: without this the worker would hold the lock
			// straight through from one round's commit into the next round's
			// selection and classify. Park briefly so queued foreground ops
			// (and the netpoller) run first; see bgYield.
			p.bg.commitCond.Broadcast()
			p.mu.Unlock()
			bgYield()
			p.mu.Lock()
		}
	}
	p.stats.CompactionTime += time.Duration(compClk.Now() - start)
}

// selectRange picks the compaction key range per the configured policy,
// charging scoring CPU to the compaction clock (Fig 6's contrast). With rank
// set — a forced round, or the round after a selection miss — the MSC
// policies rank every range by the index instead (fullestRange).
func (p *partition) selectRange(compClk *simdev.Clock, rank bool) candRange {
	selStart := compClk.Now()
	defer func() {
		p.stats.SelectionTime += time.Duration(compClk.Now() - selStart)
	}()
	snap := p.man.Acquire()
	defer snap.Release()
	ranges := p.buildRanges(snap.Tables())
	if len(ranges) == 1 {
		return p.retainRange(ranges[0])
	}
	if p.opts.Policy == msc.Random {
		return p.retainRange(ranges[p.rng.Intn(len(ranges))])
	}
	if rank {
		return p.retainRange(ranges[p.fullestRange(compClk, snap.Tables())])
	}
	cand := msc.PickCandidates(len(ranges), p.opts.PowerK, p.rng)
	stats := make([]msc.RangeStats, len(cand))
	for i, ci := range cand {
		switch p.opts.Policy {
		case msc.Precise:
			stats[i] = p.preciseStats(compClk, ranges[ci])
		default:
			stats[i] = p.approxStats(compClk, ranges[ci])
		}
	}
	best, _ := msc.Best(stats)
	if best < 0 {
		best = 0
	}
	return p.retainRange(ranges[cand[best]])
}

// fullestRange returns the index of the candidate range (buildRanges over
// tables) holding the most NVM objects, counted in the index. A forced round
// demotes everything in its range, so it needs the range that holds the most,
// and neither the bucket estimate nor a sample of ranges can be trusted to
// find it: at small scale the estimate aliases a table of a few records with
// its neighbour, and a sample misses a flood of ascending keys that all sit
// in the last range. A forced round that picks a range with nothing to
// demote frees nothing and ends the job with usage over the high watermark.
// The round after a selection miss ranks the same way, for the same reason.
// One walk of the index ranks every range: each object falls in the gap
// from one table's smallest key to the next's, and a range of RangeFiles
// tables spans RangeFiles gaps. It is charged what approx-MSC pays per bucket
// for each object. Random selection, the strawman, ranks nothing: its forced
// rounds stay random.
func (p *partition) fullestRange(compClk *simdev.Clock, tables []*sst.Table) int {
	perGap := make([]int, len(tables))
	g, visited := 0, 0
	p.index.Range(nil, nil, func(it btree.Item) bool {
		for g+1 < len(tables) && bytes.Compare(it.Key, tables[g+1].Smallest()) >= 0 {
			g++
		}
		perGap[g]++
		visited++
		return true
	})
	p.chargeCPU(compClk, time.Duration(visited)*approxPerBucket)
	rf := min(p.opts.RangeFiles, len(tables))
	best, bestN, n := 0, -1, 0
	for i, c := range perGap {
		n += c // n counts the range of gaps (i-rf, i]
		if i >= rf {
			n -= perGap[i-rf]
		}
		if i >= rf-1 && n > bestN {
			best, bestN = i-rf+1, n
		}
	}
	return best
}

// retainRange copies a candidate out of the snapshot's lifetime, into the
// merge scratch: the round that consumes it is the next thing the compaction
// thread does. The tables themselves stay alive because only that thread
// changes the manifest, and it does so at the round's end.
func (p *partition) retainRange(r candRange) candRange {
	p.merge.tables = append(p.merge.tables[:0], r.tables...)
	r.tables = p.merge.tables
	return r
}

// approxStats estimates range statistics from the buckets (§6).
func (p *partition) approxStats(compClk *simdev.Clock, r candRange) msc.RangeStats {
	lo, hi := p.keyIdxBounds(r)
	nBuckets := int((hi-lo)/uint64(p.opts.BucketKeys)) + 1
	p.chargeCPU(compClk, time.Duration(nBuckets)*approxPerBucket)
	s := p.bkt.Estimate(lo, hi)
	return msc.RangeStats{Tn: s.Tn, Tf: s.Tf, P: s.P(), O: s.O(), Benefit: s.Benefit()}
}

// preciseStats walks every object in the range: each NVM object costs a
// B-tree + mapper navigation, and each flash object an SST-index check
// (§5.3 — this is what made precise-MSC's compactions take 25 s).
func (p *partition) preciseStats(compClk *simdev.Clock, r candRange) msc.RangeStats {
	decider := p.pinDecider()
	var s msc.RangeStats
	var popular float64
	overlap := 0
	p.index.Range(r.lo, r.hi, func(it btree.Item) bool {
		s.Tn++
		clock, tracked := p.trk.Clock(it.Key)
		s.Benefit += p.trk.Coldness(it.Key)
		if tracked {
			popular += decider.PinProbability(clock)
		}
		for _, t := range r.tables {
			if t.MayContain(it.Key) {
				overlap++
				break
			}
		}
		return true
	})
	for _, t := range r.tables {
		s.Tf += float64(t.Count())
	}
	p.chargeCPU(compClk, time.Duration(s.Tn+s.Tf)*preciseScanPerObject)
	if s.Tn > 0 {
		s.P = popular / s.Tn
	}
	if s.Tf > 0 {
		s.O = float64(overlap) / s.Tf
	}
	return s
}

// mergeScratch is a partition's reusable merge-round memory: one compaction
// thread per partition (sync and async never mix) means one round at a time,
// so a steady-state round allocates nothing large, and carrying the scratch
// through a background round's unlocked phase is safe. Everything here is
// dead once the round returns.
//
// Who owns a record view, and for how long. demote holds views into arena,
// this round's private copy of the demoting slab records; the commit actions'
// keys alias it. flash holds views of the input tables' blocks, one
// File.View each (sst.Table.ReadBlocksInto): of the tables' own storage, or
// of read's buffers when a table's file is backed. They are valid while the
// manifest still references those tables — until the round's man.Apply —
// because an unreferenced table's extents are recycled into the next output
// table. Nothing may keep a view past that point: the SST writer copies what
// it is given, and no flash key or value outlives the merge.
type mergeScratch struct {
	tables   []*sst.Table // backs the selected range's table list (retainRange)
	objs     []slab.Loc   // slots of the NVM objects to demote, in key order
	objClean []bool       // parallel to objs: the object is marked clean
	pinned   [][]byte     // keys staying in NVM, in key order; alias the B-tree's immutable keys
	// pinnedClean is parallel to pinned: the key's NVM object is marked
	// clean, so its flash version stays.
	pinnedClean []bool
	arena       []byte       // the demoting records' key and value bytes
	slot        []byte       // slab read buffer
	demote      []sst.Record // views into arena, parallel to locs
	locs        []slab.Loc
	// evict is parallel to demote: the record is a clean copy of the flash
	// version the round read, so it leaves NVM unwritten (matchClean).
	evict  []bool
	flash  []sst.Record // views of the input tables, in key order
	blocks []flashBlock // the input blocks flash's records came from
	read   sst.ReadScratch

	// The plan mergeRange leaves for the commit phase.
	actions      []commitAction
	flashDropIdx []uint64 // bucket indexes of stale flash drops
}

// flashBlock is one data block of a merge round's input tables: block i of
// t, whose records are ms.flash[previous block's end:end], and its bytes as
// the read handed them out (sst.Table.ReadBlocksInto), a view like the
// records, which AppendBlock copies without reading the block again.
type flashBlock struct {
	t      *sst.Table
	i, end int
	raw    []byte
}

// commitAction is one planned NVM-side mutation of a merge round: the record
// at loc was demoted to the output tables, or — clean — was a clean copy of
// the flash version the round keeps, or — tombstone — died in the merge,
// taking the older flash version of its key with it when shadowed is set.
// It is validated against the live index at commit: the key must still
// map to loc. Under the pinned epoch every concurrent overwrite is
// copy-on-write (new loc) and no freed slot recycles, so same loc ⟺
// bit-identical record.
type commitAction struct {
	key                        []byte // aliases the merge scratch arena
	loc                        slab.Loc
	clean, tombstone, shadowed bool
}

// roundYield cedes the core from the execute phase of a background round
// (see bgYield), so that foreground work isn't stranded behind a whole table
// on CPU-constrained hosts. An inline round holds the partition lock, where
// sleeping would only lengthen everyone's wait: it never yields.
func (p *partition) roundYield() {
	if p.opts.CompactionMode == CompactionAsync {
		bgYield()
	}
}

// classifyRange splits the range's NVM objects into the ones this round
// demotes (ms.objs) and the ones the mapper pins (ms.pinned); forceAll
// ignores pinning. Both lists are in key order, and the pinned keys alias
// the B-tree's immutable key slices, so the merge consumes them with a
// moving cursor and classify allocates nothing per key. Each object's clean
// mark goes with it. Caller holds p.mu.
func (p *partition) classifyRange(r candRange, decider mapper.Decider, forceAll bool) {
	ms := &p.merge
	objs, objClean, pinned, pinnedClean := ms.objs[:0], ms.objClean[:0], ms.pinned[:0], ms.pinnedClean[:0]
	p.index.Range(r.lo, r.hi, func(it btree.Item) bool {
		_, clean := p.clean[string(it.Key)]
		if !forceAll {
			clock, tracked := p.trk.Clock(it.Key)
			if decider.ShouldPin(clock, tracked, p.rng) {
				pinned = append(pinned, it.Key)
				pinnedClean = append(pinnedClean, clean)
				return true
			}
		}
		objs = append(objs, slab.Loc(it.Val))
		objClean = append(objClean, clean)
		return true
	})
	ms.objs, ms.objClean, ms.pinned, ms.pinnedClean = objs, objClean, pinned, pinnedClean
}

// readDemoting reads the records being demoted from the slabs into the
// round's arena (ms.demote, ms.locs, and their clean marks in ms.evict). The
// reads are independent random NVM pages (the tiny-object pain point of
// §7.3), so the job issues them as one batch: each on its own fork of the
// clock at the batch's start, and the round advances to each fork's time, so
// it waits for the slowest read, not their sum. Record bytes land in one
// flat reusable buffer instead of two allocations per record; the views are
// built after it stops growing. It touches only internally-synchronized
// layers, so a background round calls it off-lock, under the epoch pin that
// keeps the slots readable and unchanged.
func (p *partition) readDemoting(compClk *simdev.Clock) {
	ms := &p.merge
	arena, demote, locs, evict := ms.arena[:0], ms.demote[:0], ms.locs[:0], ms.evict[:0]
	issue := compClk.Fork()
	for i, loc := range ms.objs {
		req := issue.Fork()
		var rec slab.Record
		var err error
		rec, ms.slot, err = p.slabs.ReadSlotInto(&req, loc, ms.slot)
		compClk.AdvanceTo(req.Now())
		if err != nil {
			continue // unreadable slot: it stays where it is
		}
		// Only the lengths of Key and Value count here: they still view the
		// slot buffer until repointRecords.
		demote = append(demote, sst.Record{Key: rec.Key, Value: rec.Value, Version: rec.Version, Tombstone: rec.Tombstone})
		locs = append(locs, loc)
		evict = append(evict, ms.objClean[i])
		arena = append(arena, rec.Key...)
		arena = append(arena, rec.Value...)
		if i%16 == 15 {
			p.roundYield()
		}
	}
	repointRecords(demote, arena)
	ms.arena, ms.demote, ms.locs, ms.evict = arena, demote, locs, evict
}

// repointRecords makes each record view its copy in arena, to which the
// records' keys and values were appended in order (key, value, key, ...)
// while the records still viewed the originals: once the arena has stopped
// growing, no view is left behind in an outgrown backing array.
func repointRecords(recs []sst.Record, arena []byte) {
	off := 0
	for i := range recs {
		kEnd := off + len(recs[i].Key)
		vEnd := kEnd + len(recs[i].Value)
		recs[i].Key = arena[off:kEnd:kEnd]
		recs[i].Value = arena[kEnd:vEnd:vEnd]
		off = vEnd
	}
}

// readFlash reads every record of the round's input tables into ms.flash
// (sequential flash reads of their data sections), as views of the tables'
// storage: see mergeScratch for how long they live. ms.blocks records which
// block each record came from. An input table that does not read back whole
// is an error: the round must not retire it. Safe off-lock, like
// readDemoting.
func (p *partition) readFlash(compClk *simdev.Clock, tables []*sst.Table, st *Stats) error {
	ms := &p.merge
	flash, blocks := ms.flash[:0], ms.blocks[:0]
	ms.read.Reset()
	for _, t := range tables {
		st.FlashBytesRead += t.DataBytes()
		err := t.ReadBlocksInto(compClk, &ms.read, func(i int, raw []byte, rec sst.Record) error {
			if n := len(blocks); n == 0 || blocks[n-1].t != t || blocks[n-1].i != i {
				blocks = append(blocks, flashBlock{t: t, i: i, raw: raw})
			}
			flash = append(flash, rec)
			blocks[len(blocks)-1].end = len(flash)
			if len(flash)%32 == 0 {
				// A real compaction thread blocks on device I/O, ceding its
				// core; the simulated read is one long decode that never
				// would.
				p.roundYield()
			}
			return nil
		})
		if err != nil {
			return fmt.Errorf("read %s: %w", t.Name(), err)
		}
		p.roundYield()
	}
	ms.flash, ms.blocks = flash, blocks
	return nil
}

// matchClean settles which of the round's clean copies leave NVM without a
// flash write, and counts the flash versions kept under pinned clean copies.
// A demoting copy stays marked in ms.evict only if the round read its flash
// version back identical — same key, version and value — so a wrong mark can
// cost a rewrite but never lose a value; a pinned copy is not read, and its
// mark is trusted, which keeping a flash version it shadows cannot make wrong.
// It reports whether no object moves into flash: every demoting record is an
// evicted clean copy or a tombstone that shadows nothing. Such a round writes
// and retires no table, whatever it pins, since a pinned key changes no block
// (blockUnchanged).
func (ms *mergeScratch) matchClean(st *Stats) (flashUnchanged bool) {
	for _, clean := range ms.pinnedClean {
		if clean {
			st.FlashVersionsKept++
		}
	}
	flash, fi := ms.flash, 0
	flashUnchanged = true
	for i, d := range ms.demote {
		for fi < len(flash) && bytes.Compare(flash[fi].Key, d.Key) < 0 {
			fi++
		}
		found := fi < len(flash) && bytes.Equal(flash[fi].Key, d.Key)
		ms.evict[i] = ms.evict[i] && found && sameRecord(d, flash[fi])
		if !ms.evict[i] && (found || !d.Tombstone) {
			flashUnchanged = false
		}
	}
	return flashUnchanged
}

// sameRecord reports whether two records of one key hold the same live
// version: what a clean copy and its flash version must be.
func sameRecord(a, b sst.Record) bool {
	return !a.Tombstone && !b.Tombstone && a.Version == b.Version && bytes.Equal(a.Value, b.Value)
}

// evictOnly is the plan of a round that moves nothing into flash
// (matchClean): each demoting record is a clean copy to evict or a tombstone
// that shadows nothing.
func (ms *mergeScratch) evictOnly() {
	actions := ms.actions[:0]
	for i, d := range ms.demote {
		actions = append(actions, commitAction{key: d.Key, loc: ms.locs[i], clean: ms.evict[i], tombstone: d.Tombstone})
	}
	ms.actions, ms.flashDropIdx = actions, ms.flashDropIdx[:0]
}

// mergeRange is the merge kernel (§4.2, §6): the round's demoting NVM records
// and its input tables' records, both sorted, go into out as one sorted run.
// NVM versions win ties, except that a clean copy leaves its identical flash
// version in place; tombstones annihilate. The run is written an input block
// at a time: a block of a page-aligned table that no demoting record changes
// (blockUnchanged) goes into out whole (sstSplitter.appendBlock), and only
// the blocks the merge changes are re-encoded. A flash version that a pinned
// dirty NVM version shadows is stale but moves nothing, so it is dropped only
// from a block re-encoded anyway and stays in a carried-over one; the flash
// version of a pinned clean copy is not stale, and stays either way. What the
// merge means for the NVM side is left in the scratch as the round's plan,
// one commitAction per NVM record merged plus the bucket indexes of the stale
// flash versions it dropped under pinned keys. It returns the number of keys
// merged.
func (p *partition) mergeRange(out *sstSplitter, st *Stats) (mergedKeys int) {
	ms := &p.merge
	demote, flash, pinned := ms.demote, ms.flash, ms.pinned
	actions, flashDropIdx := ms.actions[:0], ms.flashDropIdx[:0]
	ni, fi, pi := 0, 0, 0
	// evict frees demote[ni], a clean copy, unwritten: the caller keeps its
	// identical flash version in the output.
	evict := func() {
		actions = append(actions, commitAction{key: demote[ni].Key, loc: ms.locs[ni], clean: true})
		ni++
		mergedKeys++
	}
	// nvm merges demote[ni]: alone, or over the older flash version of its key
	// at flash[fi] when shadowed (NVM is newer, §6).
	nvm := func(shadowed bool) {
		rec := demote[ni]
		if shadowed {
			fi++
			st.DroppedStale++
		}
		if !rec.Tombstone {
			out.add(rec)
		}
		actions = append(actions, commitAction{key: rec.Key, loc: ms.locs[ni], tombstone: rec.Tombstone, shadowed: shadowed})
		ni++
		mergedKeys++
	}
	for b := 0; b <= len(ms.blocks); b++ {
		// Block b's records are flash[fi:end]; past the last block only NVM
		// records are left.
		end, last := len(flash), []byte(nil)
		if b < len(ms.blocks) {
			blk := ms.blocks[b]
			end, last = blk.end, flash[blk.end-1].Key
			if blk.t.PageAligned() && ms.blockUnchanged(fi, end, ni, out.blockOpen()) {
				// The NVM records sorting before the block join the open
				// block; the tombstones inside its span delete none of its
				// records.
				for ni < len(demote) && bytes.Compare(demote[ni].Key, flash[fi].Key) < 0 {
					nvm(false)
				}
				out.appendBlock(blk, flash[fi:end])
				before := mergedKeys
				mergedKeys += end - fi
				fi = end
				for ni < len(demote) && bytes.Compare(demote[ni].Key, last) <= 0 {
					if ms.evict[ni] {
						evict()
					} else {
						nvm(false)
					}
				}
				if mergedKeys/16 > before/16 {
					p.roundYield()
				}
				continue
			}
		}
		for fi < end || ni < len(demote) && (last == nil || bytes.Compare(demote[ni].Key, last) <= 0) {
			if mergedKeys%16 == 15 {
				p.roundYield() // merge+SST-build is pure CPU; stay polite
			}
			var cmp int
			switch {
			case ni >= len(demote) || last != nil && bytes.Compare(demote[ni].Key, last) > 0:
				cmp = 1
			case fi >= end:
				cmp = -1
			default:
				cmp = bytes.Compare(demote[ni].Key, flash[fi].Key)
			}
			if cmp == 0 && ms.evict[ni] {
				out.add(flash[fi])
				fi++
				evict()
				continue
			}
			if cmp <= 0 {
				nvm(cmp == 0)
				continue
			}
			// Flash-only.
			mergedKeys++
			rec := flash[fi]
			for pi < len(pinned) && bytes.Compare(pinned[pi], rec.Key) < 0 {
				pi++
			}
			if pi < len(pinned) && bytes.Equal(pinned[pi], rec.Key) && !ms.pinnedClean[pi] {
				// A newer pinned NVM version shadows this one.
				flashDropIdx = append(flashDropIdx, p.opts.KeyIndex(rec.Key))
				st.DroppedStale++
			} else {
				out.add(rec)
			}
			fi++
		}
	}
	ms.actions, ms.flashDropIdx = actions, flashDropIdx
	return mergedKeys
}

// blockUnchanged reports whether the input block flash[fi:end] passes
// through the merge unchanged, so that it can be carried over whole: no live
// NVM record sorts inside its key span but clean copies of its records
// (ms.evict), no NVM tombstone shadows one of its records, and the live NVM
// records sorting between it and the previous block can join the output's
// open block (open) — with no block open, they would take a page of their
// own, so the block takes them in instead. ni is the merge's cursor into
// demote.
//
// Pinned NVM keys do not count. A clean copy's flash version is not stale,
// so leaving it is no change. A pinned dirty version shadows a stale flash
// version, and dropping that frees no NVM, so it stays until its block is
// re-encoded for another reason: every read path and every merge already
// prefers the NVM version, a demotion of the key shadows it in the merge, and
// a delete finds it (delBodyLocked's filter check) and leaves a tombstone
// that takes it when demoted. Flash holds at most one version of a key, so
// the extra space is bounded by the pinned set.
func (ms *mergeScratch) blockUnchanged(fi, end, ni int, open bool) bool {
	demote, blk := ms.demote, ms.flash[fi:end]
	first, last := blk[0].Key, blk[len(blk)-1].Key
	for ; ni < len(demote) && bytes.Compare(demote[ni].Key, first) < 0; ni++ {
		if !open && !demote[ni].Tombstone {
			return false
		}
	}
	// shadows reports whether key is one of the block's keys; successive
	// calls must pass keys in order.
	j := 0
	shadows := func(key []byte) bool {
		for j < len(blk) && bytes.Compare(blk[j].Key, key) < 0 {
			j++
		}
		return j < len(blk) && bytes.Equal(blk[j].Key, key)
	}
	for ; ni < len(demote) && bytes.Compare(demote[ni].Key, last) <= 0; ni++ {
		if !ms.evict[ni] && (!demote[ni].Tombstone || shadows(demote[ni].Key)) {
			return false
		}
	}
	return true
}

// mergeRound runs one merge round over r (§4.2, §6): unpinned NVM objects
// demote to flash, stale flash versions die, tombstones annihilate. forceAll
// ignores pinning (space-safety demotion). It is entered and left with p.mu
// held and returns the NVM bytes the committed round freed, tallied action by
// action so concurrent foreground writes don't pollute the figure; I/O time
// accrues on compClk. A background round holds the lock only for classify
// and for the chunked commit passes — the record reads, flash reads, merge,
// SST writes, manifest install and freed-slot zeroing all run off-lock
// against internally-synchronized layers — while an inline round keeps it
// throughout.
func (p *partition) mergeRound(compClk *simdev.Clock, r candRange, forceAll bool) int64 {
	async := p.opts.CompactionMode == CompactionAsync
	host0 := time.Now()

	// ---- Prepare (lock held, short). The classified keys alias the B-tree's
	// immutable stored slices, so the lists stay valid off-lock; the slot
	// CONTENTS are frozen too, by the epoch pin (see commitAction). The
	// in-flight range tells deletes to write conservative tombstones (see
	// delBodyLocked).
	p.classifyRange(r, p.pinDecider(), forceAll)
	p.slabs.PinEpoch()
	p.obs.epochPins.Inc()
	p.bg.rangeActive = true
	p.bg.rangeLo, p.bg.rangeHi = r.lo, r.hi
	// Off-lock the round may not touch p.stats: it counts into local, which
	// the commit folds in.
	var local Stats
	if async {
		p.mu.Unlock()
	}

	// ---- Execute: read the demoting records through the slab manager's
	// concurrent-read path and the overlapping SSTs as views of their
	// storage, merge, and write the output SSTs.
	p.readDemoting(compClk)
	source := "compaction read"
	err := p.readFlash(compClk, r.tables, &local)
	var retired, newTables []*sst.Table
	switch {
	case err != nil:
	case p.merge.matchClean(&local):
		// Nothing moves into flash: clean copies and tombstones leave NVM,
		// no table is written, and the input tables stay in the manifest.
		p.merge.evictOnly()
		p.chargeCPU(compClk, time.Duration(len(p.merge.demote)+len(p.merge.flash))*p.opts.CPU.MergePerKey)
	default:
		out := &sstSplitter{p: p, compClk: compClk, stats: &local}
		mergedKeys := p.mergeRange(out, &local)
		p.chargeCPU(compClk, time.Duration(mergedKeys)*p.opts.CPU.MergePerKey)
		newTables, retired = out.finish(), r.tables
		p.roundYield()

		// The manifest installs BEFORE a background round re-takes the
		// partition lock: Apply publishes lock-free to readers (atomic
		// snapshot swap), and with the output SSTs already containing every
		// record the commit will drop from NVM, any interleaved read is served
		// correctly from whichever side it finds first — NVM entries are still
		// intact and shadow their fresh flash copies. Keeping the
		// (table-count-proportional) snapshot rebuild and manifest persist out
		// of the critical section is worth hundreds of microseconds of
		// foreground tail per round.
		source = "compaction commit"
		if len(newTables) > 0 || len(retired) > 0 {
			err = p.man.Apply(newTables, retired)
		}
	}
	if async {
		p.mu.Lock()
	}
	var freed int64
	if err == nil {
		freed = p.commitRound(compClk, retired, newTables, &local)
	} else {
		// Either an input table did not read back whole (a corrupt block the
		// decoder caught) and the round stopped before its merge, or the
		// manifest install failed (the journal's LogEdit, an output SST's
		// fsync, a full flash device) and Apply rolled the new snapshot back.
		// Nothing was installed, so nothing may be reconciled, and nothing
		// has been freed: the input tables and every NVM record keep serving.
		// Output SSTs already written become orphans the next recovery
		// sweeps, and the DB degrades: NVM can no longer be drained into
		// flash, or a compaction commit cannot be made durable, so no further
		// write (foreground or background) can be either. The epoch pin is released below like any
		// round's, so deferred frees don't wedge checkpoints forever.
		p.health.degrade(source, err)
		p.obs.events.Emit("compaction_abort", "partition", p.id, "cause", err.Error())
	}
	// Close the merge window, then finish the epoch's deferred frees.
	p.bg.rangeActive = false
	p.bg.rangeLo, p.bg.rangeHi = nil, nil
	p.zeroFreed(p.slabs.UnpinEpochDeferred())

	// The round's host wall time — prepare, execute and commit, a background
	// round's yields included: the foreground-visible cost of the round, as
	// opposed to CompactionTime's virtual-clock figure.
	d := time.Since(host0)
	p.obs.compRound.Record(d)
	p.obs.events.Emit("compaction_round", "partition", p.id, "took_ms", d)
	return freed
}

// commitRound is a merge round's commit phase, run under p.mu once the
// manifest has retired the round's input tables for newTables: reconcile the
// planned mutations in short chunks, so that behind a background round
// foreground ops interleave instead of waiting out one long critical section.
// The manifest went FIRST: once a pass starts dropping NVM entries, the
// demoted records must already be readable from the new tables (between
// chunks, a Get of a not-yet-dropped key is served from NVM, which shadows
// its new flash copy — either way the newest version wins). Per-key
// re-validation makes each chunk independently safe against whatever the
// foreground did in the gaps. It returns the NVM bytes the round freed.
func (p *partition) commitRound(compClk *simdev.Clock, oldTables, newTables []*sst.Table, local *Stats) int64 {
	async := p.opts.CompactionMode == CompactionAsync
	// Pair the just-installed manifest with the current tree for lock-free
	// readers before any NVM entries drop: a new-view reader finds demoted
	// keys on whichever side it reaches first, and both hold the newest
	// version.
	p.publishView()
	// pending is reclaim not yet banked. It starts at the tables' NVM
	// metadata delta — negative when the output tables' filters and indexes
	// outgrew the inputs' — so slot frees repay that growth before any credit
	// is banked, and the total banked never exceeds the round's net reclaim.
	var freed, pending int64
	for _, t := range oldTables {
		pending += t.MetaBytes()
	}
	for _, t := range newTables {
		pending -= t.MetaBytes()
	}
	// The slot frees are independent NVM page writes, issued as one batch
	// from the commit's start: each is charged to its own fork of issue, and
	// compClk advances to each fork's time as it goes, so it always stands at
	// the completion of the slowest free issued so far. Each chunk's freed
	// bytes are banked as a compJob maturing then — never before the writes
	// that pay for them — and commitCond broadcast immediately: an
	// admission-stalled writer gets its credit at chunk cadence instead of
	// waiting out the whole round.
	issue := compClk.Fork()
	bank := func() {
		if pending > 0 {
			p.compQueue = append(p.compQueue, compJob{endAt: compClk.Now(), freed: pending})
			freed += pending
			pending = 0
			p.bg.commitCond.Broadcast()
		}
	}
	for i, a := range p.merge.actions {
		if i > 0 && i%commitChunk == 0 {
			bank()
			if async {
				// Breather: a bare unlock/lock would let the worker barge
				// straight back in before any queued foreground op gets
				// scheduled; parking for a microsecond hands the core (and
				// the netpoller) to the foreground first. The chunk's index
				// drops are published so new readers stop resolving freed
				// slots (their deferred contents stay readable regardless).
				p.publishView()
				p.mu.Unlock()
				bgYield()
				p.mu.Lock()
			}
		}
		v, ok := p.index.Get(a.key)
		if !ok || slab.Loc(v) != a.loc {
			// The key was overwritten (copy-on-write under the pinned
			// epoch ⇒ new loc) or deleted while the merge ran. The newer
			// foreground state wins; skip this key's bookkeeping. If the
			// merge emitted a now-stale version to the output SSTs, the
			// NVM version shadows it until a later merge drops it.
			local.CommitConflicts++
			continue
		}
		req := issue.Fork()
		if err := p.slabs.Delete(&req, a.loc); err != nil {
			// The slot stays allocated: it is not reclaimed, and its index
			// entry keeps pointing at it. A free that cannot be made means the
			// slab bookkeeping is broken; degrade, like a failed zeroing.
			p.health.degrade("slab free", err)
			continue
		}
		compClk.AdvanceTo(req.Now())
		idx := p.opts.KeyIndex(a.key)
		pending += int64(p.slabs.SlotSize(a.loc))
		p.index.Delete(a.key)
		p.unmarkClean(a.key)
		if a.tombstone {
			p.bkt.OnNVMDelete(idx)
			p.trk.Forget(a.key)
			if a.shadowed {
				p.bkt.OnFlashDelete(idx)
			}
			local.DroppedTombstones++
		} else {
			p.bkt.OnDemote(idx)
			p.trk.SetLocation(a.key, tracker.Flash)
			if a.clean {
				local.CleanEvictions++
			} else {
				local.Demoted++
			}
		}
	}
	bank()
	// Metadata growth the frees did not cover took NVM like any insert.
	p.spaceCredit += pending
	freed += pending
	for _, idx := range p.merge.flashDropIdx {
		p.bkt.OnFlashDelete(idx)
	}
	p.stats.add(*local)
	// Final publication for the round: the last chunk's mutations.
	p.publishView()
	return freed
}

// nvmHasRoom checks the promotion headroom against a watermark: promotions
// are expensive — they take up space a compaction may have just freed
// (§5.3).
func (p *partition) nvmHasRoom(rec sst.Record, watermark float64) bool {
	ci := p.slabs.ClassOf(len(rec.Key), len(rec.Value))
	if ci < 0 {
		return false
	}
	slotSize := int64(p.slabs.ClassSize(ci))
	return p.usage()+slotSize < int64(float64(p.nvmBudget)*watermark)
}

// pinDecider builds the mapper's pin decider with the effective threshold
// capped so the expected pinned bytes never exceed ~80% of the NVM budget:
// with a generous threshold and a small fast tier, pinning more than NVM
// can hold would make every compaction fight the mapper for space.
func (p *partition) pinDecider() mapper.Decider {
	thr := p.opts.PinningThreshold
	// The pinned set must fit comfortably BELOW the low watermark, or
	// every compaction ends up force-demoting hot objects just to make
	// space — a demote/re-insert thrash cycle.
	capFrac := p.opts.LowWatermark - 0.15
	if capFrac < 0.3 {
		capFrac = 0.3
	}
	if n := p.trk.Len(); n > 0 {
		avg := int64(1024)
		if lo := p.slabs.LiveObjects(); lo > 0 {
			avg = p.slabs.LiveBytes() / int64(lo)
		}
		if avg > 0 {
			maxPinnable := float64(p.nvmBudget) * capFrac / float64(avg)
			if c := maxPinnable / float64(n); c < thr {
				thr = c
			}
		}
	}
	return mapper.New(thr).NewDecider(p.trk.Distribution())
}

// promoteToNVM writes a flash record into the slabs and flips every piece
// of bookkeeping that does not depend on what becomes of the flash version:
// index entry, clean mark, admission debit, tracker location, and the
// promotion counters. The bucket bits are the caller's. The index retains
// rec.Key: it must be memory nothing will overwrite, never a view of a
// table's storage. False means the NVM device is full.
func (p *partition) promoteToNVM(compClk *simdev.Clock, rec sst.Record) bool {
	loc, err := p.slabs.Put(compClk, slab.Record{
		Key: rec.Key, Value: rec.Value, Version: rec.Version, Tombstone: rec.Tombstone,
	})
	if err != nil {
		return false
	}
	p.index.Insert(rec.Key, uint64(loc))
	p.markClean(rec.Key)
	slot := int64(p.slabs.SlotSize(loc))
	p.spaceCredit -= slot
	p.trk.SetLocation(rec.Key, tracker.NVM)
	p.stats.Promoted++
	p.stats.PromotedBytes += slot
	return true
}

// sstSplitter writes merged output into page-aligned SSTs of at most
// TargetSSTBytes. Write-volume counters go to stats, the round's local tally
// (a background round only touches p.stats under the partition lock, at
// commit).
type sstSplitter struct {
	p       *partition
	compClk *simdev.Clock
	stats   *Stats
	w       *sst.Writer
	tables  []*sst.Table
}

func (s *sstSplitter) writer() *sst.Writer {
	if s.w == nil {
		name := s.p.opts.Flash.NextFileName(fmt.Sprintf("p%d-sst", s.p.id))
		s.w = sst.NewAlignedWriter(s.p.opts.Flash, s.p.opts.Cache, name, sst.DefaultBlockSize, int(s.p.opts.TargetSSTBytes))
	}
	return s.w
}

func (s *sstSplitter) add(rec sst.Record) {
	if err := s.writer().Add(rec); err != nil {
		panic(fmt.Sprintf("core: sst writer: %v", err)) // merge emits sorted unique keys
	}
	s.maybeCut()
}

// appendBlock carries input block b, whose records are recs, into the
// output: as a verbatim copy (sst.Writer.AppendBlock), unless it fits in the
// open block, whose page is written anyway, or fails to append. Then the
// records are re-encoded: the output holds them either way.
func (s *sstSplitter) appendBlock(b flashBlock, recs []sst.Record) {
	w := s.writer()
	if w.Fits(b.t, b.i) || w.AppendBlock(b.t, b.i, b.raw, recs) != nil {
		for _, rec := range recs {
			s.add(rec)
		}
		return
	}
	s.maybeCut()
}

// blockOpen reports whether the output has a data block being filled.
func (s *sstSplitter) blockOpen() bool { return s.w != nil && s.w.BlockOpen() }

func (s *sstSplitter) maybeCut() {
	if s.w.EstimatedSize() >= s.p.opts.TargetSSTBytes {
		s.cut()
		// Table finalization (bloom, index, flush) is the merge's longest
		// unyielding CPU stretch.
		s.p.roundYield()
	}
}

// cut finishes the output table. The device is charged for the bytes the
// writer wrote, not the ones it remapped: FlashBytesWritten counts the
// first, FlashBytesRemapped the second.
func (s *sstSplitter) cut() {
	if s.w == nil || s.w.Count() == 0 {
		return
	}
	t, err := s.w.Finish(s.compClk)
	if err != nil {
		panic(fmt.Sprintf("core: sst finish: %v", err))
	}
	s.stats.FlashBytesWritten += t.Size() - s.w.Remapped()
	s.stats.FlashBytesRemapped += s.w.Remapped()
	s.tables = append(s.tables, t)
	s.w = nil
}

func (s *sstSplitter) finish() []*sst.Table {
	s.cut()
	return s.tables
}

// promotionRound is the invocation step of read-triggered compaction
// (§5.3): pick the range with the most hot flash-only objects and promote
// them by copy. The round takes the range's flash keys that the mapper
// would pin outright from the tracker, point-reads each through the ordinary Find → Table.Get path on
// the background clock (recently read keys are mostly page-cache hits), and
// inserts them into the slabs up to the high watermark. No SST is rewritten
// and the manifest is untouched — by MSC's rule a rewrite that moves nothing
// else is flash I/O without placement benefit. The identical-version flash
// copy stays behind, shadowed by the NVM one, which promoteToNVM marks
// clean: while no write touches the key, merges keep the flash version, and
// the copy's demotion writes nothing (matchClean). The key's bucket carries
// both tier bits until one of them goes. A round that stops for lack of room arms the ordinary MSC-selected
// demotion job, which frees cold objects down to the low watermark for the
// next round: read-triggered work is a hot-for-cold swap whose only flash
// writes are cost-benefit-selected demotions.
//
// One pipeline for both modes. Entered and left with p.mu held; the async
// worker drops it around the reads and between insert chunks, re-validating
// each key against the live index as it commits — a foreground put or
// delete that landed meanwhile left an NVM entry (a delete of a flash key
// always leaves a tombstone) that wins. Demotions cannot interleave: they
// run on the same compaction thread. triggerNs is the arming op's clock.
func (p *partition) promotionRound(triggerNs int64) {
	async := p.opts.CompactionMode == CompactionAsync
	host0 := time.Now()
	compClk := simdev.NewBGClock()
	compClk.AdvanceTo(triggerNs)
	// Serial with the demotion job; the wait behind it is not this round's
	// compaction time.
	compClk.AdvanceTo(p.compEndAt)
	start := compClk.Now()

	// The snapshot is held for the whole round: the point reads below run
	// against its tables.
	snap := p.man.Acquire()
	defer snap.Release()
	if snap.Len() == 0 {
		// Nothing on flash: nothing to promote. Checked before building
		// candidate ranges, which would be pure wasted work here.
		return
	}
	ranges := p.buildRanges(snap.Tables())
	best := pickPromotionRange(p, compClk, ranges)
	if best < 0 {
		return
	}
	cpu := p.opts.CPU
	decider := p.pinDecider()
	var keys [][]byte
	scanned := 0
	p.trk.Scan(tracker.Flash, ranges[best].lo, ranges[best].hi, func(key string, clock int) {
		scanned++
		// Only clock values the mapper pins outright. At the boundary value
		// ShouldPin samples, and a key promoted on one coin flip is demoted
		// on the next merge's: a round trip through flash for nothing.
		if decider.PinProbability(clock) >= 1 {
			keys = append(keys, []byte(key))
		}
	})
	p.chargeCPU(compClk, time.Duration(scanned)*cpu.MergePerKey)
	// room bounds the reads: what the inserts below cannot place is not
	// fetched. The insert loop re-checks against live usage.
	room := int64(float64(p.nvmBudget)*p.opts.HighWatermark) - p.usage()
	noRoom := false
	if async {
		p.mu.Unlock()
	}
	var recs []sst.Record
	var flashRead int64
	for i, key := range keys {
		if room <= 0 {
			noRoom = true
			break
		}
		if async && i%16 == 15 {
			bgYield() // cede the core to foreground work
		}
		t := snap.Find(key)
		if t == nil {
			continue
		}
		p.chargeCPU(compClk, cpu.IndexOp+cpu.BloomCheck)
		before := compClk.Now()
		rec, found, err := t.Get(compClk, key)
		if compClk.Now() != before {
			flashRead += sst.DefaultBlockSize // the device served the block
		}
		if err != nil || !found || rec.Tombstone {
			continue // the foreground read path surfaces flash errors
		}
		ci := p.slabs.ClassOf(len(rec.Key), len(rec.Value))
		if ci < 0 {
			continue
		}
		room -= int64(p.slabs.ClassSize(ci))
		// The index retains the key it is given: hand it the round's small
		// private copy, not a slice of the read's key+value allocation.
		rec.Key = key
		recs = append(recs, rec)
	}
	if async {
		p.mu.Lock()
	}

	promoted := 0
	for i, rec := range recs {
		if async && i > 0 && i%commitChunk == 0 {
			// Breather: publish the chunk's tree growth and park so queued
			// foreground ops run first (see bgYield).
			p.publishView()
			p.mu.Unlock()
			bgYield()
			p.mu.Lock()
		}
		if _, ok := p.index.Get(rec.Key); ok {
			p.stats.CommitConflicts++
			continue
		}
		p.chargeCPU(compClk, cpu.IndexOp)
		if !p.nvmHasRoom(rec, p.opts.HighWatermark) {
			noRoom = true
			break
		}
		if !p.promoteToNVM(compClk, rec) {
			noRoom = true // NVM device full
			break
		}
		p.bkt.OnPut(p.opts.KeyIndex(rec.Key)) // the flash bit stays set
		promoted++
	}
	p.stats.FlashBytesRead += flashRead
	p.stats.Compactions++
	p.stats.ReadTriggeredComps++
	p.stats.CompactionTime += time.Duration(compClk.Now() - start)
	if compClk.Now() > p.compEndAt {
		p.compEndAt = compClk.Now()
	}
	if promoted > 0 {
		p.publishView()
	}
	p.obs.events.Emit("promotion_round",
		"partition", p.id, "promoted", promoted, "no_room", noRoom,
		"took_ms", time.Since(host0))
	if noRoom {
		p.stats.PromoteNoRoom++
		p.triggerDemotion()
	}
}

// onOp advances the read-trigger state machine (§5.3). Called with the
// partition lock held, after the operation's own bookkeeping.
func (rt *readTriggerState) onOp(p *partition, isRead bool) {
	o := p.opts.ReadTrigger
	if !o.Enabled {
		return
	}
	rt.opsInPhase++
	if isRead {
		rt.reads++
	} else {
		rt.writes++
	}
	switch rt.phase {
	case rtDetect:
		window := o.Epoch / 10
		if window < 100 {
			window = 100
		}
		if rt.opsInPhase < window {
			return
		}
		total := rt.reads + rt.writes
		readFrac := float64(rt.reads) / float64(total)
		if readFrac >= readHeavyFraction && p.trk.FlashFraction() >= o.MinFlashFraction {
			rt.phase = rtActive
			rt.lastRatio = rt.ratio()
			rt.resetWindow()
			p.triggerPromotion()
		} else {
			rt.resetWindow()
		}
	case rtActive:
		interval := o.Epoch / 4
		if interval < 1 {
			interval = 1
		}
		if rt.opsInPhase%interval == 0 && rt.opsInPhase < o.Epoch {
			p.triggerPromotion()
		}
		if rt.opsInPhase >= o.Epoch {
			newRatio := rt.ratio()
			if newRatio-rt.lastRatio >= improveDelta {
				rt.lastRatio = newRatio
				rt.resetWindow() // keep compacting next epoch
				p.triggerPromotion()
			} else {
				rt.phase = rtCooldown
				rt.resetWindow()
			}
		}
	case rtCooldown:
		if rt.opsInPhase >= o.Cooldown {
			rt.phase = rtDetect
			rt.resetWindow()
		}
	}
}

func (rt *readTriggerState) ratio() float64 {
	total := rt.nvmReads + rt.flashReads
	if total == 0 {
		return 0
	}
	return float64(rt.nvmReads) / float64(total)
}

func (rt *readTriggerState) resetWindow() {
	rt.opsInPhase = 0
	rt.reads, rt.writes = 0, 0
	rt.nvmReads, rt.flashReads = 0, 0
}
