package core

import "time"

// Tier identifies where a read was served from (Fig 2b, Fig 14a).
type Tier int

const (
	// TierDRAM means the OS page cache absorbed the read.
	TierDRAM Tier = iota
	// TierNVM means the fast device served it.
	TierNVM
	// TierFlash means the slow device served it.
	TierFlash
	// TierMiss means the key does not exist.
	TierMiss
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierDRAM:
		return "dram"
	case TierNVM:
		return "nvm"
	case TierFlash:
		return "flash"
	case TierMiss:
		return "miss"
	}
	return "unknown"
}

// Stats aggregates engine activity. All counters are cumulative since Open
// (or the last ResetStats).
type Stats struct {
	Puts    int64
	Gets    int64
	Deletes int64
	Scans   int64

	// Read sources.
	GetDRAM  int64
	GetNVM   int64
	GetFlash int64
	GetMiss  int64

	// BloomFalsePositives counts flash probes where the SST bloom filter
	// said the key might be present but the table read found nothing (or
	// only a tombstone) — the wasted block I/O a filter exists to avoid.
	// The filters target a 1% false-positive rate; a ratio far above that
	// against GetMiss+GetFlash traffic means undersized filters or a
	// pathological key mix.
	BloomFalsePositives int64

	// Write paths.
	InPlaceUpdates int64
	FreshInserts   int64
	SlabMoves      int64 // update changed size class: delete + fresh insert

	// Compaction activity.
	Compactions        int64
	ReadTriggeredComps int64
	CompactionTime     time.Duration
	SelectionTime      time.Duration // time spent scoring candidates
	Demoted            int64
	Promoted           int64
	DroppedStale       int64 // obsolete flash versions removed by merges
	DroppedTombstones  int64
	FlashBytesRead     int64 // compaction reads from flash: input data sections
	FlashBytesWritten  int64 // compaction writes to flash the device was charged for
	// FlashBytesRemapped is the output bytes merges carried over from input
	// tables as whole unchanged pages: a device remaps those instead of
	// writing them (sst.Writer.AppendBlock), so they cost no write.
	FlashBytesRemapped int64

	// CleanEvictions counts clean copies (promoted objects no write has
	// touched since) that merges freed from NVM with no flash write: their
	// identical flash versions stayed. FlashVersionsKept counts the flash
	// versions merges kept under pinned clean copies, one per copy per round
	// whose range holds it.
	CleanEvictions    int64
	FlashVersionsKept int64

	// PromotedBytes is the NVM slot bytes promotions took. PromoteNoRoom
	// counts read-triggered rounds that stopped short of their hot keys for
	// lack of NVM room and armed a demotion job to make some: with
	// ReadTriggeredComps and Promoted it tells a working hot-for-cold swap
	// (rounds promote, some arm demotions) from a starved one (rounds fire,
	// nothing moves).
	PromotedBytes int64
	PromoteNoRoom int64

	// Foreground write stalls caused by NVM rate limiting (§4.2).
	WriteStalls    int64
	WriteStallTime time.Duration

	// Background-worker activity. Under CompactionSync there is no worker,
	// so the backlog and the hard stalls are always zero, and no foreground
	// op can get between a merge round's plan and its commit.
	//
	// CompactionBacklog is a gauge: background jobs currently pending or
	// running across partitions at the moment Stats was taken.
	CompactionBacklog int64
	// CommitConflicts counts per-key commit skips: a key a background
	// merge round demoted (or whose tombstone it annihilated) that was
	// overwritten or deleted by a foreground op while the merge ran, so
	// the commit's validation left the newer foreground version alone.
	// A promotion round counts here too (in either mode) each candidate it
	// read from flash and then found NVM-resident at insert time.
	CommitConflicts int64
	// CompactionHardStalls counts foreground writes that exhausted the
	// space-admission credit with no matured reclaim available and
	// host-blocked until the background worker's next commit.
	// CompactionHardStallTime is the total host (wall-clock, not virtual)
	// time those writes spent blocked.
	CompactionHardStalls    int64
	CompactionHardStallTime time.Duration

	// Write path (writequeue.go). Every applied batch is counted once, by
	// the one function that applies batches, wherever it ran.
	//
	// WriteBatches counts applied batches; DirectWrites counts the mutations
	// applied by their own submitter — a Put/Delete, or a PutBatch's whole
	// run for a partition, that found the lock free and nothing queued, and
	// a batch leader's own intents — rather than by another writer leading
	// the batch. ViewRepublishes counts read-view publications (one per
	// mutating batch rather than one per mutating op — the batching win).
	// ProducerParks counts submitters that found the partition busy and
	// queued their intents for a batch leader. WriteQueueDepth is a gauge:
	// intents queued across partitions, waiting for a leader, at the moment
	// Stats was taken.
	WriteBatches    int64
	DirectWrites    int64
	ViewRepublishes int64
	ProducerParks   int64
	WriteQueueDepth int64
	// WriteBatchP50/P99 are batch sizes at those percentiles (a log
	// bucket's lower bound, exact below 16), computed by DB.Stats from the
	// partitions' merged batch-size histograms — the prism_write_batch_ops
	// series — not summed in add: a percentile of percentiles would be
	// meaningless.
	WriteBatchP50 int64
	WriteBatchP99 int64

	// NVMObjects and FlashObjects count records stored per tier, not
	// distinct keys: the slab slots in use and the records of the live
	// SSTs, tombstones included on both. A key with a clean promoted copy,
	// or with a stale flash version under a pinned NVM version, counts on
	// both tiers, so the sum can exceed the number of live keys.
	NVMObjects   int64
	FlashObjects int64
}

// add merges two stats (for per-partition aggregation).
func (s *Stats) add(o Stats) {
	s.Puts += o.Puts
	s.Gets += o.Gets
	s.Deletes += o.Deletes
	s.Scans += o.Scans
	s.GetDRAM += o.GetDRAM
	s.GetNVM += o.GetNVM
	s.GetFlash += o.GetFlash
	s.GetMiss += o.GetMiss
	s.BloomFalsePositives += o.BloomFalsePositives
	s.InPlaceUpdates += o.InPlaceUpdates
	s.FreshInserts += o.FreshInserts
	s.SlabMoves += o.SlabMoves
	s.Compactions += o.Compactions
	s.ReadTriggeredComps += o.ReadTriggeredComps
	s.CompactionTime += o.CompactionTime
	s.SelectionTime += o.SelectionTime
	s.Demoted += o.Demoted
	s.Promoted += o.Promoted
	s.PromotedBytes += o.PromotedBytes
	s.PromoteNoRoom += o.PromoteNoRoom
	s.DroppedStale += o.DroppedStale
	s.DroppedTombstones += o.DroppedTombstones
	s.CleanEvictions += o.CleanEvictions
	s.FlashVersionsKept += o.FlashVersionsKept
	s.FlashBytesRead += o.FlashBytesRead
	s.FlashBytesWritten += o.FlashBytesWritten
	s.FlashBytesRemapped += o.FlashBytesRemapped
	s.WriteStalls += o.WriteStalls
	s.WriteStallTime += o.WriteStallTime
	s.CompactionBacklog += o.CompactionBacklog
	s.CommitConflicts += o.CommitConflicts
	s.CompactionHardStalls += o.CompactionHardStalls
	s.CompactionHardStallTime += o.CompactionHardStallTime
	s.WriteBatches += o.WriteBatches
	s.DirectWrites += o.DirectWrites
	s.ViewRepublishes += o.ViewRepublishes
	s.ProducerParks += o.ProducerParks
	s.WriteQueueDepth += o.WriteQueueDepth
	s.NVMObjects += o.NVMObjects
	s.FlashObjects += o.FlashObjects
}

// NVMReadRatio returns the fraction of successful reads served from DRAM or
// NVM rather than flash.
func (s Stats) NVMReadRatio() float64 {
	total := s.GetDRAM + s.GetNVM + s.GetFlash
	if total == 0 {
		return 0
	}
	return float64(s.GetDRAM+s.GetNVM) / float64(total)
}
