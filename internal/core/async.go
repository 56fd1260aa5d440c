package core

import (
	"fmt"
	"time"

	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
)

// Background compaction (Options.CompactionMode == CompactionAsync): what
// only that mode has.
//
// Run inline, a demotion job makes one unlucky foreground write pay every
// round's multi-SST read/merge/write in host wall-clock time before its reply
// — and every other client on the partition queues behind it. In async mode
// the trigger only flags a per-partition worker goroutine. The worker runs
// the same demotionJob and promotionRound (compaction.go) as the inline mode;
// this file holds the worker itself and the three things it does that an
// inline job must not: release the lock (the jobs do that at their own mode
// tests), yield the core (bgYield) and zero freed slots off-lock (zeroFreed).
//
// The virtual-time model does not change with the mode: jobs run on a
// background clock serialized by compEndAt, their I/O uses the background
// device lanes, and reclaimed space matures through the same compQueue that
// admitWrite stalls on. The only new coupling is host-time backpressure: a
// writer whose space credit runs dry while the reclaim is still inside an
// uncommitted merge blocks on commitCond until the next commit (admitWrite),
// so foreground writes can never outrun the worker unboundedly.

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
			p.demotionJob(p.bg.demoteTriggerNs)
		}
		if promote && healthy && !p.bg.stopping {
			p.promotionRound(p.bg.promoteTriggerNs)
		}
		p.bg.running = false
		p.bg.commitCond.Broadcast()
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
		p.chargeCPU(compClk, time.Duration(nBuckets)*approxPerBucket)
		if s.HotFlash > bestHot {
			bestIdx, bestHot = ci, s.HotFlash
		}
	}
	return bestIdx
}

// commitChunk is how many planned mutations (merge commit actions,
// promotion inserts) a job applies before it banks their reclaim and, on the
// worker, lets foreground ops in.
const commitChunk = 8

// bgYield cedes the processor from the worker's execute phase. A plain
// runtime.Gosched is not enough on a CPU-starved host: it leaves the
// worker runnable, so the scheduler never finds an empty run queue and
// never drains the netpoller — socket-ready foreground connections would
// sit out entire merge rounds (until sysmon's forced poll) behind a
// "background" job. Parking for even a microsecond empties the run queue,
// lets the netpoller deliver waiting foreground work, and stretches the
// merge's host duration slightly — the classic compaction throttling
// trade (rate-limit background work to protect foreground tails), and one
// only the async mode can make: an inline job holds the partition lock,
// where sleeping would be strictly worse.
func bgYield() {
	time.Sleep(time.Microsecond)
}

// zeroFreed finishes the frees a reclamation epoch deferred, handed over by
// the UnpinEpochDeferred that closed it: issue the zeroing writes (one per
// slot), then recycle the zeroed slots. Entered and left with p.mu held; in
// async mode the lock is dropped around the zeroing writes exactly as a
// background round's execute phase drops it. A zeroing write that fails
// degrades the DB and leaks the remaining slots instead of recycling them: an
// un-zeroed slot still holds its old record bytes, and handing it back out
// would let crash recovery resurrect data the engine already freed. (Without
// a health tracker — partitions built directly in tests — the failure stays
// a loud panic, as before.)
func (p *partition) zeroFreed(zeroLocs []slab.Loc) {
	if len(zeroLocs) == 0 {
		return
	}
	async := p.opts.CompactionMode == CompactionAsync
	if async {
		p.mu.Unlock()
	}
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
			p.roundYield()
		}
	}
	if async {
		p.mu.Lock()
	}
	p.slabs.RecycleSlots(zeroLocs[:zeroed])
}
