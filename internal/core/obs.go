package core

import (
	"time"

	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/obs"
)

// engineObs bundles the engine's live telemetry instruments. Every DB has
// one — Options.Metrics/Options.Events only choose whether the registry and
// event log are shared with an embedding server or private — so benchmark
// numbers always include the instrumentation cost. Hot-path instruments
// (the histograms and counters below) are lock-free and recorded directly;
// everything already counted in Stats/PersistenceStats is declared once in
// Series and exported through one registry collector instead of a second
// counter, so each subsystem keeps a single source of truth.
type engineObs struct {
	reg    *obs.Registry
	events *obs.EventLog

	fsyncLatency *metrics.Histogram // WAL segment fdatasync wall time
	walBatch     *metrics.Histogram // records covered per fsync (group commit)
	compRound    *metrics.Histogram // merge round host wall time, both compaction modes
	viewRetries  *obs.Counter       // lock-free GET view-validation retries
	epochPins    *obs.Counter       // slab reclamation epochs pinned

	ioStalls        *obs.Counter // WAL I/O stalls declared by the watchdog
	scrubSlots      *obs.Counter // slab slots CRC-verified by the scrubber
	scrubBlocks     *obs.Counter // SST blocks CRC-verified by the scrubber
	scrubBitRot     *obs.Counter // CRC mismatches found (both tiers)
	scrubQuarantine *obs.Counter // SSTs quarantined from the manifest
}

func newEngineObs(reg *obs.Registry, events *obs.EventLog) *engineObs {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	if events == nil {
		events = obs.NewEventLog(256)
	}
	return &engineObs{
		reg:    reg,
		events: events,
		fsyncLatency: reg.Histogram("prism_wal_fsync_seconds",
			"Wall duration of WAL segment fdatasync calls.", obs.UnitSeconds),
		walBatch: reg.Histogram("prism_wal_group_commit_records",
			"Records covered by each WAL fsync (group-commit batch size).", obs.UnitCount),
		compRound: reg.Histogram("prism_compaction_round_seconds",
			"Host wall duration of compaction merge rounds, inline (sync) or background (async): prepare+execute+commit.", obs.UnitSeconds),
		viewRetries: reg.Counter("prism_read_view_retries_total",
			"Lock-free GET attempts that failed slot validation and retried against a fresh view."),
		epochPins: reg.Counter("prism_epoch_pins_total",
			"Slab reclamation epochs pinned (iterators and async compaction jobs)."),
		ioStalls: reg.Counter("prism_io_stall_total",
			"WAL I/O operations declared stalled by the watchdog (each degrades the DB)."),
		scrubSlots: reg.Counter("prism_scrub_slots_total",
			"NVM slab slots CRC-verified by the background scrubber."),
		scrubBlocks: reg.Counter("prism_scrub_blocks_total",
			"Flash SST blocks CRC-verified by the background scrubber."),
		scrubBitRot: reg.Counter("prism_scrub_bitrot_total",
			"CRC mismatches the scrubber found (slab slots and SST blocks)."),
		scrubQuarantine: reg.Counter("prism_scrub_quarantined_ssts_total",
			"SST files quarantined from the manifest after a failed block CRC."),
	}
}

// Registry returns the DB's metrics registry (Options.Metrics, or the
// private one created at Open). Every engine instrument (fsync latency,
// write batching, compaction rounds, view retries) records here; mount it
// with prismdb.NewMetricsMux to expose /metrics.
func (db *DB) Registry() *obs.Registry { return db.obs.reg }

// Events returns the DB's structured event log (Options.Events, or the
// private one created at Open).
func (db *DB) Events() *obs.EventLog { return db.obs.events }

// Sample is one sweep of the engine's numbers, taken once per INFO request
// or /metrics scrape: every row of Series reads from it. Health and Events
// feed /metrics only — INFO's health and events sections render their own
// lines — so a Sample built from Stats and PersistenceStats alone leaves
// them zero.
type Sample struct {
	Stats
	Persistence PersistenceStats
	Elapsed     time.Duration // the simulation's virtual clock (DB.Elapsed)
	Health      HealthState
	Events      int64 // structured events emitted
}

const (
	opsHelp  = "Engine operations completed, by op."
	tierHelp = "Reads served, by tier."
	objHelp  = "Records stored, by tier: slab slots in use on NVM, SST records on flash, tombstones included. A key can count on both tiers."
)

// Series declares every engine number once: its INFO section and key, its
// /metrics series, its unit, and how it is read off a Sample. The server's
// INFO engine, writes, persistence and tiers sections print these rows in
// this order, and the registry collector exports every row that names a
// series (persistence rows only for a durable DB). Rows without a Name are
// INFO figures derived from other series.
var Series = []obs.Series[Sample]{
	{Section: "engine", Key: "puts", Name: `prism_engine_ops_total{op="put"}`, Help: opsHelp,
		Read: func(s Sample) float64 { return float64(s.Puts) }},
	{Section: "engine", Key: "gets", Name: `prism_engine_ops_total{op="get"}`, Help: opsHelp,
		Read: func(s Sample) float64 { return float64(s.Gets) }},
	{Section: "engine", Key: "deletes", Name: `prism_engine_ops_total{op="delete"}`, Help: opsHelp,
		Read: func(s Sample) float64 { return float64(s.Deletes) }},
	{Section: "engine", Key: "scans", Name: `prism_engine_ops_total{op="scan"}`, Help: opsHelp,
		Read: func(s Sample) float64 { return float64(s.Scans) }},
	{Section: "engine", Key: "in_place_updates", Name: "prism_engine_in_place_updates_total",
		Help: "Puts that overwrote an NVM-resident object in its slot.",
		Read: func(s Sample) float64 { return float64(s.InPlaceUpdates) }},
	{Section: "engine", Key: "fresh_inserts", Name: "prism_engine_fresh_inserts_total",
		Help: "Puts that took a fresh NVM slot.",
		Read: func(s Sample) float64 { return float64(s.FreshInserts) }},
	{Section: "engine", Key: "slab_moves", Name: "prism_engine_slab_moves_total",
		Help: "Writes that took a fresh slot for an NVM-resident key and freed its old one: a size-class change, a copy-on-write under an open scan, or a delete's tombstone.",
		Read: func(s Sample) float64 { return float64(s.SlabMoves) }},
	{Section: "engine", Key: "compactions", Name: "prism_engine_compactions_total",
		Help: "Compaction jobs completed.",
		Read: func(s Sample) float64 { return float64(s.Compactions) }},
	{Section: "engine", Key: "read_triggered_compactions", Name: "prism_engine_read_triggered_rounds_total",
		Help: "Read-triggered promotion rounds run.",
		Read: func(s Sample) float64 { return float64(s.ReadTriggeredComps) }},
	{Section: "engine", Key: "compaction_virt_ms", Name: "prism_engine_compaction_virtual_seconds_total",
		Help: "Virtual time compaction spent on its background clocks.", Unit: obs.UnitMillis,
		Read: func(s Sample) float64 { return float64(s.CompactionTime) }},
	{Section: "engine", Key: "selection_virt_ms", Name: "prism_engine_selection_virtual_seconds_total",
		Help: "Virtual time compaction spent scoring candidate ranges.", Unit: obs.UnitMillis,
		Read: func(s Sample) float64 { return float64(s.SelectionTime) }},
	{Section: "engine", Key: "demoted", Name: "prism_engine_demoted_total",
		Help: "Objects demoted from NVM to flash.",
		Read: func(s Sample) float64 { return float64(s.Demoted) }},
	{Section: "engine", Key: "promoted", Name: "prism_engine_promoted_total",
		Help: "Objects promoted from flash to NVM.",
		Read: func(s Sample) float64 { return float64(s.Promoted) }},
	{Section: "engine", Key: "promoted_bytes", Name: "prism_engine_promoted_bytes_total",
		Help: "NVM slot bytes taken by promotions.",
		Read: func(s Sample) float64 { return float64(s.PromotedBytes) }},
	{Section: "engine", Key: "promote_no_room", Name: "prism_engine_promote_no_room_total",
		Help: "Read-triggered rounds that stopped for lack of NVM room and armed a demotion job.",
		Read: func(s Sample) float64 { return float64(s.PromoteNoRoom) }},
	{Section: "engine", Key: "dropped_stale", Name: "prism_engine_dropped_stale_total",
		Help: "Obsolete flash versions merges dropped.",
		Read: func(s Sample) float64 { return float64(s.DroppedStale) }},
	{Section: "engine", Key: "dropped_tombstones", Name: "prism_engine_dropped_tombstones_total",
		Help: "Tombstones merges annihilated.",
		Read: func(s Sample) float64 { return float64(s.DroppedTombstones) }},
	{Section: "engine", Key: "clean_evictions", Name: "prism_engine_clean_evictions_total",
		Help: "Clean copies of flash versions merges freed from NVM with no flash write.",
		Read: func(s Sample) float64 { return float64(s.CleanEvictions) }},
	{Section: "engine", Key: "flash_versions_kept", Name: "prism_engine_flash_versions_kept_total",
		Help: "Flash versions merges kept under pinned clean copies of them.",
		Read: func(s Sample) float64 { return float64(s.FlashVersionsKept) }},
	{Section: "engine", Key: "compaction_flash_read_bytes", Name: "prism_engine_compaction_flash_read_bytes_total",
		Help: "Bytes compaction read from flash.",
		Read: func(s Sample) float64 { return float64(s.FlashBytesRead) }},
	{Section: "engine", Key: "compaction_flash_written_bytes", Name: "prism_engine_compaction_flash_written_bytes_total",
		Help: "Bytes compaction wrote to flash.",
		Read: func(s Sample) float64 { return float64(s.FlashBytesWritten) }},
	{Section: "engine", Key: "compaction_flash_remapped_bytes", Name: "prism_engine_compaction_flash_remapped_bytes_total",
		Help: "Bytes compaction carried into new tables as unchanged input pages, remapped rather than written.",
		Read: func(s Sample) float64 { return float64(s.FlashBytesRemapped) }},
	{Section: "engine", Key: "write_stalls", Name: "prism_engine_write_stalls_total",
		Help: "Foreground writes stalled by NVM space admission.",
		Read: func(s Sample) float64 { return float64(s.WriteStalls) }},
	{Section: "engine", Key: "write_stall_virt_ms", Name: "prism_engine_write_stall_virtual_seconds_total",
		Help: "Virtual time foreground writes spent stalled by NVM space admission.", Unit: obs.UnitMillis,
		Read: func(s Sample) float64 { return float64(s.WriteStallTime) }},
	{Section: "engine", Key: "compaction_backlog", Name: "prism_engine_compaction_backlog", Gauge: true,
		Help: "Background compaction jobs pending or running.",
		Read: func(s Sample) float64 { return float64(s.CompactionBacklog) }},
	{Section: "engine", Key: "compaction_commit_conflicts", Name: "prism_engine_compaction_commit_conflicts_total",
		Help: "Per-key commit skips: foreground overwrote a key mid-merge.",
		Read: func(s Sample) float64 { return float64(s.CommitConflicts) }},
	{Section: "engine", Key: "compaction_hard_stalls", Name: "prism_engine_compaction_hard_stalls_total",
		Help: "Writes that host-blocked waiting for a background commit.",
		Read: func(s Sample) float64 { return float64(s.CompactionHardStalls) }},
	{Section: "engine", Key: "compaction_hard_stall_wall_ms", Name: "prism_engine_compaction_hard_stall_seconds_total",
		Help: "Host seconds writes spent hard-stalled.", Unit: obs.UnitMillis,
		Read: func(s Sample) float64 { return float64(s.CompactionHardStallTime) }},
	{Section: "engine", Key: "nvm_objects", Name: `prism_engine_objects{tier="nvm"}`, Help: objHelp, Gauge: true,
		Read: func(s Sample) float64 { return float64(s.NVMObjects) }},
	{Section: "engine", Key: "flash_objects", Name: `prism_engine_objects{tier="flash"}`, Help: objHelp, Gauge: true,
		Read: func(s Sample) float64 { return float64(s.FlashObjects) }},
	{Section: "engine", Key: "elapsed_virtual_ms", Name: "prism_engine_elapsed_virtual_seconds", Gauge: true,
		Help: "The simulation's virtual clock: the furthest partition frontier.", Unit: obs.UnitMillis,
		Read: func(s Sample) float64 { return float64(s.Elapsed) }},

	{Section: "writes", Key: "write_batches", Name: "prism_write_batches_total",
		Help: "Write batches applied, by their submitter or by a batch leader.",
		Read: func(s Sample) float64 { return float64(s.WriteBatches) }},
	{Section: "writes", Key: "write_direct", Name: "prism_write_direct_total",
		Help: "Mutations applied by their own submitter (uncontended batches and batch leaders' own).",
		Read: func(s Sample) float64 { return float64(s.DirectWrites) }},
	{Section: "writes", Key: "write_batch_p50", // quantiles of prism_write_batch_ops
		Read: func(s Sample) float64 { return float64(s.WriteBatchP50) }},
	{Section: "writes", Key: "write_batch_p99",
		Read: func(s Sample) float64 { return float64(s.WriteBatchP99) }},
	{Section: "writes", Key: "write_queue_depth", Name: "prism_write_queue_depth", Gauge: true,
		Help: "Intents queued for a batch leader.",
		Read: func(s Sample) float64 { return float64(s.WriteQueueDepth) }},
	{Section: "writes", Key: "producer_parks", Name: "prism_write_producer_parks_total",
		Help: "Writers that found their partition busy and queued for a batch leader.",
		Read: func(s Sample) float64 { return float64(s.ProducerParks) }},
	{Section: "writes", Key: "view_republishes", Name: "prism_write_view_republishes_total",
		Help: "Read-view publications (one per mutating batch).",
		Read: func(s Sample) float64 { return float64(s.ViewRepublishes) }},

	{Section: "persistence", Key: "durable", // the section is present only when it is 1
		Read: func(s Sample) float64 { return 1 }},
	{Section: "persistence", Key: "wal_bytes", Name: "prism_wal_appended_bytes_total",
		Help: "WAL record bytes appended.",
		Read: func(s Sample) float64 { return float64(s.Persistence.WALBytes) }},
	{Section: "persistence", Key: "wal_records", Name: "prism_wal_records_total",
		Help: "WAL records appended.",
		Read: func(s Sample) float64 { return float64(s.Persistence.WALRecords) }},
	{Section: "persistence", Key: "wal_fsyncs", Name: "prism_wal_fsyncs_total",
		Help: "WAL segment fdatasync calls.",
		Read: func(s Sample) float64 { return float64(s.Persistence.WALFsyncs) }},
	{Section: "persistence", Key: "wal_segments", Name: "prism_wal_segments", Gauge: true,
		Help: "WAL segment files on disk.",
		Read: func(s Sample) float64 { return float64(s.Persistence.WALSegments) }},
	{Section: "persistence", Key: "group_commit_batch_p50", // quantiles of prism_wal_group_commit_records
		Read: func(s Sample) float64 { return float64(s.Persistence.GroupCommitBatchP50) }},
	{Section: "persistence", Key: "group_commit_batch_p99",
		Read: func(s Sample) float64 { return float64(s.Persistence.GroupCommitBatchP99) }},
	{Section: "persistence", Key: "fsync_p50_us", Unit: obs.UnitMicros, // quantiles of prism_wal_fsync_seconds
		Read: func(s Sample) float64 { return float64(s.Persistence.FsyncP50) }},
	{Section: "persistence", Key: "fsync_p99_us", Unit: obs.UnitMicros,
		Read: func(s Sample) float64 { return float64(s.Persistence.FsyncP99) }},
	{Section: "persistence", Key: "checkpoints", Name: "prism_wal_checkpoints_total",
		Help: "Checkpoint + prune cycles completed.",
		Read: func(s Sample) float64 { return float64(s.Persistence.Checkpoints) }},
	{Section: "persistence", Key: "recovery_ms", Name: "prism_wal_recovery_seconds", Gauge: true,
		Help: "Wall time the last open spent recovering.", Unit: obs.UnitMillis,
		Read: func(s Sample) float64 { return float64(s.Persistence.RecoveryDuration) }},
	{Section: "persistence", Key: "recovery_records", Name: "prism_wal_recovery_records", Gauge: true,
		Help: "WAL records the last open replayed.",
		Read: func(s Sample) float64 { return float64(s.Persistence.RecoveryRecords) }},
	{Section: "persistence", Key: "recovery_segments", Name: "prism_wal_recovery_segments", Gauge: true,
		Help: "WAL segments the last open replayed.",
		Read: func(s Sample) float64 { return float64(s.Persistence.RecoverySegments) }},
	{Section: "persistence", Key: "last_recovery_truncated_bytes", Name: "prism_wal_recovery_truncated_bytes", Gauge: true,
		Help: "Torn-tail bytes the last open cut from the final WAL segment.",
		Read: func(s Sample) float64 { return float64(s.Persistence.LastRecoveryTruncatedBytes) }},
	{Section: "persistence", Key: "orphan_ssts_removed", Name: "prism_wal_orphan_ssts_removed", Gauge: true,
		Help: "Uncommitted SST files the last open removed.",
		Read: func(s Sample) float64 { return float64(s.Persistence.OrphanSSTsRemoved) }},
	{Section: "persistence", Key: "corrupt_slots_freed", Name: "prism_slab_corrupt_slots_freed", Gauge: true,
		Help: "Slab slots the last open freed for failing their CRC (torn by a crash, or rotted).",
		Read: func(s Sample) float64 { return float64(s.Persistence.CorruptSlotsFreed) }},

	{Section: "events", Key: "events_total", Name: "prism_events_total",
		Help: "Structured events emitted.",
		Read: func(s Sample) float64 { return float64(s.Events) }},
	{Section: "health", Key: "health_state", Name: "prism_health_state", Gauge: true,
		Help: "Failure-domain state: 0 healthy, 1 degraded (read-only), 2 failed.",
		Read: func(s Sample) float64 { return float64(s.Health) }},

	{Section: "tiers", Key: "reads_dram", Name: `prism_engine_reads_total{tier="dram"}`, Help: tierHelp,
		Read: func(s Sample) float64 { return float64(s.GetDRAM) }},
	{Section: "tiers", Key: "reads_nvm", Name: `prism_engine_reads_total{tier="nvm"}`, Help: tierHelp,
		Read: func(s Sample) float64 { return float64(s.GetNVM) }},
	{Section: "tiers", Key: "reads_flash", Name: `prism_engine_reads_total{tier="flash"}`, Help: tierHelp,
		Read: func(s Sample) float64 { return float64(s.GetFlash) }},
	{Section: "tiers", Key: "reads_miss", Name: `prism_engine_reads_total{tier="miss"}`, Help: tierHelp,
		Read: func(s Sample) float64 { return float64(s.GetMiss) }},
	// Wasted flash probes: the bloom filter passed but the table read found
	// nothing (or only a tombstone). Filters target ~1% FP.
	{Section: "tiers", Key: "bloom_false_positives", Name: "prism_engine_bloom_false_positives_total",
		Help: "Flash probes the SST bloom filter failed to reject.",
		Read: func(s Sample) float64 { return float64(s.BloomFalsePositives) }},
	{Section: "tiers", Key: "dram_hit_ratio", Unit: obs.UnitRatio, // shares of prism_engine_reads_total
		Read: func(s Sample) float64 { return s.readShare(s.GetDRAM) }},
	{Section: "tiers", Key: "nvm_hit_ratio", Unit: obs.UnitRatio,
		Read: func(s Sample) float64 { return s.readShare(s.GetNVM) }},
	{Section: "tiers", Key: "flash_hit_ratio", Unit: obs.UnitRatio,
		Read: func(s Sample) float64 { return s.readShare(s.GetFlash) }},
	{Section: "tiers", Key: "miss_ratio", Unit: obs.UnitRatio,
		Read: func(s Sample) float64 { return s.readShare(s.GetMiss) }},
	{Section: "tiers", Key: "nvm_read_ratio", Name: "prism_engine_nvm_read_ratio", Gauge: true, Unit: obs.UnitRatio,
		Help: "Fraction of successful reads served from DRAM or NVM.",
		Read: func(s Sample) float64 { return s.NVMReadRatio() }},
}

// readShare is n's share of all reads, misses included.
func (s Sample) readShare(n int64) float64 {
	total := s.GetDRAM + s.GetNVM + s.GetFlash + s.GetMiss
	if total == 0 {
		return 0
	}
	return float64(n) / float64(total)
}

// registerCollector exports Series and the merged write-batch histogram
// from one sweep per Gather, so /metrics and INFO read identical numbers
// through identical declarations.
func (db *DB) registerCollector() {
	db.obs.reg.Collect(func(g *obs.Gathered) {
		st, batches := db.stats()
		smp := Sample{Stats: st, Persistence: db.PersistenceStats(), Elapsed: db.Elapsed(),
			Health: db.Health().State, Events: db.obs.events.Total()}
		for _, r := range Series {
			if r.Name != "" && (r.Section != "persistence" || smp.Persistence.Durable) {
				g.Points = append(g.Points, r.Point(smp))
			}
		}
		g.Histogram("prism_write_batch_ops", "Mutations applied per write batch, wherever it ran.",
			obs.UnitCount, batches)
	})
}
