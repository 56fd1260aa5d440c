package core

import (
	"fmt"
	"time"

	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/slab"
)

// Background scrub (Options.ScrubInterval > 0, durable mode).
//
// Bit rot is the failure the WAL cannot help with: a block that was written
// correctly, fsynced, acknowledged — and then silently changed under the
// engine. Every slab slot carries a 24-bit header CRC and every SST block's
// handle stores a CRC32 in the (NVM-resident) index, so rot is detectable;
// this goroutine is what actually goes looking for it before a client read
// does.
//
// The scrubber is strictly lower priority than foreground work:
//
//   - Slab slots are verified in small batches. Each batch pins a
//     reclamation epoch and collects ≤ scrubSlabBatch (key, loc) pairs from
//     the B-tree under the partition lock (with a resume cursor, so the lock
//     hold is O(batch) however big the tree is), then verifies the slots
//     OFF the lock — the epoch pin freezes slot contents exactly as it does
//     for compaction merges: overwrites go copy-on-write and frees defer,
//     so a CRC mismatch can only mean the bytes changed under a slot the
//     engine believes intact.
//   - SST blocks are verified against a refcounted manifest snapshot, raw
//     file reads only: no page-cache population, no clock charge, no cache
//     pollution.
//   - Pacing sleeps between batches keep the scrub's I/O and CPU in the
//     noise floor of a loaded server.
//
// Verdicts: a rotted SST block quarantines its table from the manifest
// (journaled like a compaction commit; reads fall through to other tiers —
// an NVM copy still serves, a flash-only key reports not-found rather than
// returning rotted bytes). A rotted slab slot is unrecoverable — NVM is the
// newest tier, there is no redundant copy — so the DB moves to Failed.
const (
	// scrubSlabBatch bounds (key, loc) pairs collected per partition-lock
	// hold, and therefore the epoch-pin span.
	scrubSlabBatch = 256
	// scrubPace is the sleep between verification batches.
	scrubPace = 2 * time.Millisecond
)

// scrubber is the DB's background scrub goroutine.
type scrubber struct {
	db   *DB
	quit chan struct{}
	done chan struct{}
}

// startScrubber launches the scrub loop (Open, after recovery: the scrubbed
// state must be the recovered state).
func (db *DB) startScrubber() *scrubber {
	s := &scrubber{db: db, quit: make(chan struct{}), done: make(chan struct{})}
	go s.loop()
	return s
}

// stopScrubber stops the scrub goroutine and waits it out. Nil-safe and
// idempotent (Close and crashDurable both call it).
func (db *DB) stopScrubber() {
	if db.scrub == nil {
		return
	}
	close(db.scrub.quit)
	<-db.scrub.done
	db.scrub = nil
}

func (s *scrubber) loop() {
	defer close(s.done)
	t := time.NewTicker(s.db.opts.ScrubInterval)
	defer t.Stop()
	for {
		select {
		case <-s.quit:
			return
		case <-t.C:
		}
		s.db.scrubPass(s.quit)
	}
}

// scrubPass runs one full verification cycle over every partition's slab
// slots and SST blocks. quit (may be nil for a synchronous call from tests)
// aborts between batches. It runs even while Degraded: reads are still
// serving, so rot detection still matters — and a slab hit escalates the
// state to Failed.
func (db *DB) scrubPass(quit chan struct{}) {
	start := time.Now()
	var slots, blocks int64
	for _, p := range db.parts {
		if stopRequested(quit) {
			return
		}
		slots += p.scrubSlabs(quit)
		blocks += p.scrubSSTs(quit)
	}
	db.obs.events.Emit("scrub_cycle",
		"slots", slots, "blocks", blocks, "took_ms", time.Since(start))
}

func stopRequested(quit chan struct{}) bool {
	select {
	case <-quit:
		return true
	default:
		return false
	}
}

// scrubEntry is one (key, loc) pair captured under the partition lock. The
// key aliases the B-tree's immutable stored slice (valid off-lock; tree
// nodes are copy-on-write) and is only used for diagnostics.
type scrubEntry struct {
	key []byte
	loc slab.Loc
}

// scrubSlabs verifies every NVM slot the partition's index references, in
// epoch-pinned batches, returning the number verified.
func (p *partition) scrubSlabs(quit chan struct{}) int64 {
	var verified int64
	var buf []byte
	batch := make([]scrubEntry, 0, scrubSlabBatch)
	var cursor []byte // resume key: scan restarts here each batch
	for {
		if stopRequested(quit) {
			return verified
		}
		batch = batch[:0]
		p.mu.Lock()
		p.slabs.PinEpoch()
		p.obs.epochPins.Inc()
		p.index.AscendFrom(cursor, func(it btree.Item) bool {
			if len(batch) == scrubSlabBatch {
				// One past the batch: the resume point for the next lock hold.
				cursor = it.Key
				return false
			}
			batch = append(batch, scrubEntry{it.Key, slab.Loc(it.Val)})
			return true
		})
		last := len(batch) < scrubSlabBatch // tree exhausted before the cutoff
		p.mu.Unlock()

		// Verify off-lock: the pinned epoch freezes these slots (overwrites
		// copy-on-write, frees defer), so raw reads see exactly the bytes the
		// engine believes are there.
		for _, e := range batch {
			ok, b, err := p.slabs.VerifySlot(e.loc, buf)
			buf = b
			verified++
			p.obs.scrubSlots.Inc()
			switch {
			case err != nil:
				p.obs.events.Emit("scrub_error",
					"partition", p.id, "tier", "nvm", "key", string(e.key), "err", err.Error())
			case !ok:
				// NVM bit rot: no redundant copy exists (NVM holds the newest
				// version), so this object is lost. Count it, shout, and move
				// the DB to Failed — reads keep serving what is readable, but
				// a reopen will not bring the object back.
				p.obs.scrubBitRot.Inc()
				p.obs.events.Emit("scrub_bitrot",
					"partition", p.id, "tier", "nvm", "key", string(e.key))
				if p.health != nil {
					p.health.fail("scrub", fmt.Errorf("nvm slab slot CRC mismatch (partition %d, key %q)", p.id, e.key))
				}
			}
		}

		p.mu.Lock()
		p.zeroFreed(p.slabs.UnpinEpochDeferred())
		p.mu.Unlock()
		if last {
			return verified
		}
		time.Sleep(scrubPace)
	}
}

// scrubSSTs verifies every block of every live SST in the partition's
// manifest against the CRC its (NVM-resident) index entry recorded at build
// time, returning the number of blocks verified. Tables that fail are
// quarantined: journaled out of the live set, file preserved on disk for
// post-mortem, reads falling through to whatever other tiers hold.
func (p *partition) scrubSSTs(quit chan struct{}) int64 {
	var verified int64
	var buf []byte
	snap := p.man.Acquire()
	defer snap.Release()
	for _, t := range snap.Tables() {
		bad := false
	blockLoop:
		for i := 0; i < t.NumBlocks(); i++ {
			if stopRequested(quit) {
				return verified
			}
			ok, b, err := t.VerifyBlock(i, buf)
			buf = b
			verified++
			p.obs.scrubBlocks.Inc()
			switch {
			case err != nil:
				p.obs.events.Emit("scrub_error",
					"partition", p.id, "tier", "flash", "sst", t.Name(), "block", i, "err", err.Error())
			case !ok:
				p.obs.scrubBitRot.Inc()
				bad = true
				break blockLoop // one rotted block condemns the table
			}
			if i%8 == 7 {
				time.Sleep(scrubPace)
			}
		}
		if !bad {
			continue
		}
		// Quarantine: a journaled removal (crash-durable like a compaction
		// commit) that leaves the file on disk. Keys the table covered fall
		// through — NVM copies still serve; flash-only keys report not-found
		// rather than rotted bytes. The view republish hands lock-free
		// readers the new snapshot.
		if err := p.man.Quarantine(t); err != nil {
			// The quarantine edit itself could not be journaled: the removal
			// would not survive a restart. Degrade — the same verdict as any
			// other journal write failure.
			if p.health != nil {
				p.health.degrade("scrub quarantine", err)
			}
			p.obs.events.Emit("scrub_error",
				"partition", p.id, "tier", "flash", "sst", t.Name(), "err", err.Error())
			continue
		}
		p.obs.scrubQuarantine.Inc()
		p.obs.events.Emit("scrub_quarantine",
			"partition", p.id, "sst", t.Name())
		p.mu.Lock()
		p.publishView()
		p.mu.Unlock()
	}
	return verified
}
