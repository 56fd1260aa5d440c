package core

import (
	"fmt"
	"time"

	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/tracker"
)

// Async compaction (Options.CompactionMode == CompactionAsync).
//
// The sync path runs the whole demotion merge inline under the partition
// lock, so one unlucky foreground write pays the entire multi-SST
// read/merge/write in host wall-clock time before its reply — and every
// other client on the partition queues behind it. Here the trigger only
// flags a per-partition worker goroutine. Read-triggered promotion rounds
// are not merges and have no twin in this file: the worker runs
// promotionRound (compaction.go), which drops the lock around its point
// reads and between insert chunks. Each demotion merge round is split into
// three phases:
//
//   - prepare (locked, short): select the range, classify its NVM objects,
//     and pin a slab reclamation epoch so foreground overwrites of in-range
//     keys go copy-on-write (PR 2's scan substrate, reused as the merge's
//     conflict detector: an unchanged B-tree loc at commit proves an
//     unchanged record).
//   - execute (unlocked): read the demoting slab records and the
//     overlapping SSTs, merge, and write the output SSTs — the same
//     readDemoting / readFlash / mergeRange steps as the inline round
//     (compaction.go), with asyncMerge recording the NVM-side decisions as
//     a plan instead of applying them. The flash records are views of the
//     input tables' storage and die with the manifest install that retires
//     those tables; the plan keeps only what it copied (commit-action keys
//     alias the round's arena, promotion candidates its promoArena). The
//     device, page-cache, slab-file, and SST layers are all safe for
//     concurrent use — the same concurrency iterators already exercise —
//     so foreground gets/puts/scans proceed in parallel, and the worker
//     yields its core at a fine cadence (bgYield) so they actually do on
//     CPU-constrained hosts.
//   - commit (locked, chunked): install the manifest, then reconcile every
//     planned mutation against the live index in small chunks. A key
//     overwritten or deleted while the merge ran keeps its newer
//     foreground version (the plan's drop/demote bookkeeping for it is
//     skipped and counted in CommitConflicts); everything else flips
//     exactly as the inline path would, and each chunk's reclaim is banked
//     as a compJob maturing at the round's virtual completion.
//
// The virtual-time model is identical to sync compaction: jobs run on a
// background clock serialized by compEndAt, their I/O uses the background
// device lanes, and reclaimed space matures through the same compQueue
// that admitWrite stalls on. The only new coupling is host-time
// backpressure: a writer whose space credit runs dry while the reclaim is
// still inside an uncommitted merge blocks on commitCond until the next
// commit (admitWrite), so foreground writes can never outrun the worker
// unboundedly.

// startWorker launches the partition's background compaction worker.
func (p *partition) startWorker() {
	p.bg.done = make(chan struct{})
	go p.compactionWorker()
}

// stopWorker asks the worker to exit after its current job and wakes every
// waiter; the caller then waits on bg.done.
func (p *partition) stopWorker() {
	p.mu.Lock()
	p.bg.stopping = true
	p.bg.jobCond.Broadcast()
	p.bg.commitCond.Broadcast()
	p.mu.Unlock()
}

// drainLocked waits until the worker has no pending or running job. Caller
// holds p.mu. No-op in sync mode (the flags are never set).
func (p *partition) drainLocked() {
	for (p.bg.running || p.bg.demotePending || p.bg.promotePending) && !p.bg.stopping {
		p.bg.commitCond.Wait()
	}
}

// compactionWorker is the partition's background compaction loop: wait for
// a trigger, run the job(s), broadcast, repeat. It owns the partition's
// single compaction "thread" — demotion and promotion jobs serialize here
// exactly as they serialize on compEndAt in virtual time. A promotion round
// that ran out of room re-arms demotePending; the next loop turn runs it.
func (p *partition) compactionWorker() {
	defer close(p.bg.done)
	p.mu.Lock()
	defer p.mu.Unlock()
	for {
		for !p.bg.demotePending && !p.bg.promotePending && !p.bg.stopping {
			p.bg.jobCond.Wait()
		}
		if p.bg.stopping {
			p.bg.demotePending, p.bg.promotePending = false, false
			p.bg.commitCond.Broadcast()
			return
		}
		demote, promote := p.bg.demotePending, p.bg.promotePending
		p.bg.demotePending, p.bg.promotePending = false, false
		p.bg.running = true
		// A degraded DB refuses writes, so compaction has nothing to make
		// room for — and its commits would churn a substrate (manifest
		// journal, slab files) already known broken. Stand down: consume
		// the triggers without running the jobs.
		healthy := p.health == nil || p.health.ok()
		if demote && healthy {
			p.asyncDemotionJob()
		}
		if promote && healthy && !p.bg.stopping {
			p.promotionRound(p.bg.promoteTriggerNs) // the arming op's clock, as sync would
		}
		p.bg.running = false
		p.bg.commitCond.Broadcast()
	}
}

// asyncDemotionJob is runDemotionCompaction's background twin: rounds of
// select → three-phase merge until usage falls below the low watermark.
// Entered and left with p.mu held; each round drops the lock during its
// execute phase.
func (p *partition) asyncDemotionJob() {
	compClk := simdev.NewBGClock()
	compClk.AdvanceTo(p.bg.demoteTriggerNs) // the arming op's clock, as sync would
	compClk.AdvanceTo(p.compEndAt)          // serial with the previous job
	start := compClk.Now()
	low := int64(float64(p.nvmBudget) * p.opts.LowWatermark)

	noProgress := 0
	for round := 0; round < maxCompactionRounds && p.usage() > low && !p.bg.stopping; round++ {
		r := p.selectRange(compClk)
		force := noProgress >= 2
		// The round banks its reclaim into compQueue itself, commit chunk
		// by commit chunk, waking admission-stalled writers as it goes;
		// freed here only drives the progress check.
		freed := p.asyncCompactRange(compClk, r, p.opts.Promotions && !force, force)
		p.stats.Compactions++
		if freed > 0 {
			noProgress = 0
		} else {
			noProgress++
			if force {
				break // even forced demotion freed nothing; give up
			}
		}
		if compClk.Now() > p.compEndAt {
			p.compEndAt = compClk.Now()
		}
		p.bg.commitCond.Broadcast()
		// Round boundary: without this the worker would hold the lock
		// straight through from one round's commit into the next round's
		// selection and classify. Park briefly so queued foreground ops
		// (and the netpoller) run first; see bgYield.
		p.mu.Unlock()
		bgYield()
		p.mu.Lock()
	}
	p.stats.CompactionTime += time.Duration(compClk.Now() - start)
	if compClk.Now() > p.compEndAt {
		p.compEndAt = compClk.Now()
	}
}

// pickPromotionRange scores candidate ranges by hot-flash estimate and
// returns the best index, or -1, charging scoring CPU to compClk. Caller
// holds p.mu.
func pickPromotionRange(p *partition, compClk *simdev.Clock, ranges []candRange) int {
	cand := msc.PickCandidates(len(ranges), p.opts.PowerK, p.rng)
	bestIdx, bestHot := -1, 0.0
	for _, ci := range cand {
		lo, hi := p.keyIdxBounds(ranges[ci])
		s := p.bkt.Estimate(lo, hi)
		nBuckets := int((hi-lo)/uint64(p.opts.BucketKeys)) + 1
		p.chargeCPU(compClk, time.Duration(nBuckets)*p.opts.CPU.ApproxPerBucket)
		if s.HotFlash > bestHot {
			bestIdx, bestHot = ci, s.HotFlash
		}
	}
	return bestIdx
}

// commitChunk is how many planned mutations (merge commit actions,
// promotion inserts) the worker applies per critical section before it lets
// foreground ops in.
const commitChunk = 8

// commitActionKind classifies a planned NVM-side mutation of a background
// merge.
type commitActionKind uint8

const (
	// actDemote: the record was emitted to the output SSTs; at commit its
	// NVM slot frees and the popularity metadata flips to flash.
	actDemote commitActionKind = iota
	// actDropTombstone: an NVM-only tombstone with no flash version dies.
	actDropTombstone
	// actDropTombstoneShadow: a tombstone annihilates its flash version
	// (which the merge did not emit).
	actDropTombstoneShadow
)

// commitAction is one planned mutation, validated against the live index
// at commit time: the key must still map to loc. Under the pinned epoch
// every concurrent overwrite is copy-on-write (new loc) and no freed slot
// recycles, so loc equality is a strict superset of comparing slab-record
// versions — same loc ⟺ bit-identical record; version rides along as the
// captured evidence.
type commitAction struct {
	kind    commitActionKind
	key     []byte // aliases the merge scratch arena
	loc     slab.Loc
	version uint64
}

// bgYield cedes the processor from the worker's execute phase. A plain
// runtime.Gosched is not enough on a CPU-starved host: it leaves the
// worker runnable, so the scheduler never finds an empty run queue and
// never drains the netpoller — socket-ready foreground connections would
// sit out entire merge rounds (until sysmon's forced poll) behind a
// "background" job. Parking for even a microsecond empties the run queue,
// lets the netpoller deliver waiting foreground work, and stretches the
// merge's host duration slightly — the classic compaction throttling
// trade (rate-limit background work to protect foreground tails), and one
// only the async mode can make: the inline path holds the partition lock,
// where sleeping would be strictly worse.
func bgYield() {
	time.Sleep(time.Microsecond)
}

// asyncMerge is the background round's visitor: it runs off-lock, so each
// decision becomes an entry of the plan in the merge scratch (commit
// actions, promotion list, stale-flash bucket drops) for the locked commit
// phase to validate and apply.
type asyncMerge struct{ p *partition }

func (v asyncMerge) demoted(i int) {
	ms := &v.p.merge
	ms.actions = append(ms.actions, commitAction{actDemote, ms.demote[i].Key, ms.locs[i], ms.demote[i].Version})
}

func (v asyncMerge) tombstoneDied(i int, shadowed bool) {
	ms := &v.p.merge
	kind := actDropTombstone
	if shadowed {
		kind = actDropTombstoneShadow
	}
	ms.actions = append(ms.actions, commitAction{kind, ms.demote[i].Key, ms.locs[i], ms.demote[i].Version})
}

func (v asyncMerge) flashShadowed(key []byte) {
	ms := &v.p.merge
	ms.flashDropIdx = append(ms.flashDropIdx, v.p.opts.KeyIndex(key))
}

// promote never moves the record: unlike the inline path's move, a
// background promotion ALSO emits it to the output SSTs. If the commit later
// skips the NVM insert (conflict, device full), the record is still durable
// on flash, never lost; the duplicate flash copy is shadowed by the NVM
// version and dies as stale in a later merge. The promotion list outlives
// the input tables — the manifest retires them before the commit inserts —
// so the candidates are copied to the scratch's promoArena (the round
// re-points the list into it after the merge), not kept as views.
func (v asyncMerge) promote(i int) bool {
	ms := &v.p.merge
	if len(ms.promote) > 0 && ms.promote[i] {
		rec := ms.flash[i]
		ms.promos = append(ms.promos, rec)
		ms.promoArena = append(append(ms.promoArena, rec.Key...), rec.Value...)
	}
	return false
}

// asyncCompactRange runs one background merge round over r. It is entered
// and left with p.mu held and returns the NVM bytes the committed round
// freed (net of promotions), tallied action by action so concurrent
// foreground writes don't pollute the figure. The partition lock is held
// only for short bookkeeping sections: classify, the batched promotion
// decisions, and chunked commit passes — the record reads, flash reads,
// merge, SST writes, and freed-slot zeroing all run off-lock against
// internally-synchronized layers.
func (p *partition) asyncCompactRange(compClk *simdev.Clock, r candRange, allowPromote, forceAll bool) int64 {
	defer p.observeRound(time.Now(), allowPromote)
	ms := &p.merge

	// ---- Phase 1 (prepare, lock held, short): classify the range's NVM
	// objects. Keys alias the B-tree's immutable stored slices, so the
	// lists stay valid off-lock; the slot CONTENTS are frozen too, because
	// the epoch pin taken below forces every concurrent overwrite
	// copy-on-write and defers every free — which is also what lets the
	// commit detect conflicts by loc equality and keeps captured locs
	// unambiguous (no recycling while pinned). The in-flight range tells
	// deletes to write conservative tombstones (see del).
	p.classifyRange(r, p.pinDecider(), forceAll)
	p.slabs.PinEpoch()
	p.obs.epochPins.Inc()
	p.bg.rangeActive = true
	p.bg.rangeLo, p.bg.rangeHi = r.lo, r.hi
	// The merge scratch is compaction-private state (one worker; sync and
	// async never mix), so carrying it through the unlocked phase is safe.
	var local Stats
	p.mu.Unlock()

	// ---- Execute (unlocked): read the demoting records through the slab
	// manager's concurrent-read path and the overlapping SSTs as views of
	// their storage. Same virtual-time model as the inline path.
	p.readDemoting(compClk)
	p.readFlash(compClk, r.tables, &local)

	// Promotion decisions need the tracker, the partition RNG, and current
	// usage: one short lock for the whole batch. The projection starts
	// from usage NET of the slots this round is about to free — a
	// demotion round's mid-merge usage is still above the trigger, and
	// projecting from it would veto promotions sync's incremental
	// (free-as-you-go) check admits. The commit re-checks room against
	// live usage before every insert, so this pre-filter only has to be
	// approximately right.
	ms.promote = ms.promote[:0]
	if allowPromote && len(ms.flash) > 0 {
		ms.promote = append(ms.promote, make([]bool, len(ms.flash))...)
		var plannedFree int64
		for _, loc := range ms.locs {
			plannedFree += int64(p.slabs.SlotSize(loc))
		}
		p.mu.Lock()
		dec := p.pinDecider()
		proj := p.usage() - plannedFree
		// A demotion merge exists to free space: it promotes only into room
		// below the low watermark, or the job undoes its own work and the
		// partition thrashes between tiers.
		wmBytes := int64(float64(p.nvmBudget) * p.opts.LowWatermark)
		for i, rec := range ms.flash {
			ci := p.slabs.ClassOf(len(rec.Key), len(rec.Value))
			if ci < 0 {
				continue
			}
			slot := int64(p.slabs.ClassSize(ci))
			if proj+slot >= wmBytes {
				continue
			}
			clock, tracked := p.trk.Clock(rec.Key)
			if dec.ShouldPin(clock, tracked, p.rng) {
				ms.promote[i] = true
				proj += slot
			}
		}
		p.mu.Unlock()
	}

	// ---- Execute (unlocked): merge and write the output SSTs, recording
	// the NVM-side plan (asyncMerge) instead of applying it.
	ms.promos, ms.promoArena, ms.actions, ms.flashDropIdx = ms.promos[:0], ms.promoArena[:0], ms.actions[:0], ms.flashDropIdx[:0]
	out := &sstSplitter{p: p, compClk: compClk, stats: &local}
	mergedKeys := p.mergeRange(out, &local, asyncMerge{p})
	repointRecords(ms.promos, ms.promoArena)
	p.chargeCPU(compClk, time.Duration(mergedKeys)*p.opts.CPU.MergePerKey)
	newTables := out.finish()
	bgYield()
	promos, actions := ms.promos, ms.actions

	// The manifest installs BEFORE the partition lock is re-taken: Apply
	// publishes lock-free to readers (atomic snapshot swap), and with the
	// output SSTs already containing every record the commit will drop
	// from NVM, any interleaved read is served correctly from whichever
	// side it finds first — NVM entries are still intact and shadow their
	// fresh flash copies. Keeping the (table-count-proportional) snapshot
	// rebuild and manifest persist out of the critical section is worth
	// hundreds of microseconds of foreground tail per round.
	if len(newTables) > 0 || len(r.tables) > 0 {
		if err := p.man.Apply(newTables, r.tables); err != nil {
			if p.health == nil {
				// Manifest persistence cannot fail in the simulation unless
				// the flash device is full; surface loudly in development.
				panic(fmt.Sprintf("core: manifest apply: %v", err))
			}
			// Durable mode: the manifest journal's LogEdit (or an output
			// SST's fsync) failed, and Apply rolled the new snapshot back —
			// nothing was installed, so nothing may be reconciled. The old
			// tables keep serving, the written output SSTs become orphans
			// the next recovery sweeps, and the DB degrades: a compaction
			// commit that cannot be made durable means no further write
			// (foreground or background) can be either. Abort the round,
			// releasing the epoch pin so deferred frees don't wedge
			// checkpoints forever.
			p.health.degrade("compaction commit", err)
			p.obs.events.Emit("compaction_abort", "partition", p.id, "cause", err.Error())
			p.mu.Lock()
			p.bg.rangeActive = false
			p.bg.rangeLo, p.bg.rangeHi = nil, nil
			p.zeroFreedLocked(p.slabs.UnpinEpochDeferred())
			return 0
		}
	}

	// ---- Commit (lock re-held on return): install the manifest, then
	// reconcile the planned mutations in short chunks so foreground ops
	// interleave instead of waiting out one long critical section. The
	// manifest goes FIRST: once a chunked pass starts dropping NVM
	// entries, the demoted records must already be readable from the new
	// tables (between chunks, a Get of a not-yet-dropped key is served
	// from NVM, which shadows its new flash copy — either way the newest
	// version wins). Per-key re-validation makes each chunk independently
	// safe against whatever the foreground did in the gaps.
	var freed int64
	p.mu.Lock()
	// Pair the just-installed manifest with the current tree for lock-free
	// readers before any NVM entries drop: a new-view reader finds demoted
	// keys on whichever side it reaches first, and both hold the newest
	// version (NVM entries still shadow their fresh flash copies).
	p.publishView()
	for _, t := range r.tables {
		freed += t.MetaBytes()
	}
	for _, t := range newTables {
		freed -= t.MetaBytes()
	}
	chunkFreed, banked := int64(0), int64(0)
	// debt is NVM consumed by this round before any slot frees: flash
	// metadata growth (freed starts negative) and promotion inserts.
	// Chunks repay it before banking credit, so the total banked can
	// never exceed the round's true net reclaim.
	debt := int64(0)
	if freed < 0 {
		debt = -freed
	}
	bankChunk := func() {
		if chunkFreed <= debt {
			debt -= chunkFreed
			freed += chunkFreed
			chunkFreed = 0
			return
		}
		net := chunkFreed - debt
		debt = 0
		p.compQueue = append(p.compQueue, compJob{endAt: compClk.Now(), freed: net})
		freed += chunkFreed
		banked += net
		chunkFreed = 0
		p.bg.commitCond.Broadcast()
	}
	for pn, rec := range promos {
		if pn > 0 && pn%commitChunk == 0 {
			// Same breather discipline as the action loop below: a hot
			// promotion batch must not hold the partition lock for
			// hundreds of inserts. Each chunk's tree growth is published
			// before the lock drops.
			p.publishView()
			p.mu.Unlock()
			bgYield()
			p.mu.Lock()
		}
		if _, ok := p.index.Get(rec.Key); ok {
			// A foreground write landed a newer NVM version meanwhile; it
			// already shadows the flash copy the merge re-emitted.
			local.CommitConflicts++
			continue
		}
		if !p.nvmHasRoom(rec, p.opts.LowWatermark) {
			// Usage moved under the merge (foreground burst): the
			// authoritative room check happens here, against live usage,
			// exactly like sync's emitFlash gate. Skipping is always safe
			// — the record is in the output SSTs.
			continue
		}
		// The index retains its key; rec views scratch the next round reuses.
		rec.Key = append([]byte(nil), rec.Key...)
		slot, ok := p.promoteToNVM(compClk, rec, &local)
		if !ok {
			continue // no room; the record is safe in the output SSTs
		}
		freed -= slot
		debt += slot
		// The output SSTs carry the record too: resident on both tiers.
		p.bkt.OnPut(p.opts.KeyIndex(rec.Key))
	}
	// Chunked reconciliation. Each chunk's freed slot bytes are banked as
	// a compJob (the round's virtual end is already final on compClk) and
	// commitCond broadcast immediately: an admission-stalled writer gets
	// its credit at chunk cadence instead of waiting out the whole round.
	for i, a := range actions {
		if i > 0 && i%commitChunk == 0 {
			bankChunk()
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
		idx := p.opts.KeyIndex(a.key)
		chunkFreed += int64(p.slabs.SlotSize(a.loc))
		p.slabs.FreeSlot(compClk, a.loc)
		p.index.Delete(a.key)
		switch a.kind {
		case actDemote:
			p.bkt.OnDemote(idx)
			p.trk.SetLocation(a.key, tracker.Flash)
			local.Demoted++
		case actDropTombstone, actDropTombstoneShadow:
			p.bkt.OnNVMDelete(idx)
			p.trk.Forget(a.key)
			if a.kind == actDropTombstoneShadow {
				p.bkt.OnFlashDelete(idx)
			}
			local.DroppedTombstones++
		}
	}
	bankChunk()
	// Whatever the chunks didn't bank (the flash-metadata footprint delta,
	// net of promotion debits) matures like any other reclaim.
	if residual := freed - banked; residual > 0 {
		p.compQueue = append(p.compQueue, compJob{endAt: compClk.Now(), freed: residual})
		p.bg.commitCond.Broadcast()
	}
	for _, idx := range ms.flashDropIdx {
		p.bkt.OnFlashDelete(idx)
	}
	p.stats.add(local)
	// Final publication for the round: the last chunk's mutations.
	p.publishView()
	// Close the merge window, then finish the epoch's deferred frees with
	// the zeroing writes (one per slot) off-lock.
	p.bg.rangeActive = false
	p.bg.rangeLo, p.bg.rangeHi = nil, nil
	p.zeroFreedLocked(p.slabs.UnpinEpochDeferred())
	return freed
}

// zeroFreedLocked finishes the frees a reclamation epoch deferred, handed
// over by the UnpinEpochDeferred that closed it: issue the zeroing writes
// (one per slot) off-lock, then recycle the zeroed slots. Entered and left
// with p.mu held; the lock is dropped around the zeroing writes exactly as
// the round's execute phase drops it. A zeroing write that fails degrades
// the DB and leaks the remaining slots instead of recycling them: an
// un-zeroed slot still holds its old record bytes, and handing it back out
// would let crash recovery resurrect data the engine already freed. (Without
// a health tracker — partitions built directly in tests — the failure stays
// a loud panic, as before.)
func (p *partition) zeroFreedLocked(zeroLocs []slab.Loc) {
	if len(zeroLocs) == 0 {
		return
	}
	p.mu.Unlock()
	zeroed := 0
	for i, loc := range zeroLocs {
		if err := p.slabs.ZeroSlot(loc); err != nil {
			if p.health == nil {
				panic(fmt.Sprintf("core: deferred free: %v", err))
			}
			p.health.degrade("slab free", err)
			break
		}
		zeroed++
		if i%64 == 63 {
			bgYield()
		}
	}
	//prismvet:ignore lockheld re-acquire of the caller's hold, dropped above to issue the zeroing writes off-lock; entered-and-left-held is this function's contract
	p.mu.Lock()
	p.slabs.RecycleSlots(zeroLocs[:zeroed])
}
