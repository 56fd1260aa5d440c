package core

import (
	"github.com/prismdb/prismdb/internal/obs"
)

// engineObs bundles the engine's live telemetry instruments. Every DB has
// one — Options.Metrics/Options.Events only choose whether the registry and
// event log are shared with an embedding server or private — so benchmark
// numbers always include the instrumentation cost. Hot-path instruments
// (the histograms and counters below) are lock-free obs types recorded
// directly; everything already counted in Stats/PersistenceStats is
// exported through one registry collector instead of a second counter, so
// each subsystem keeps a single source of truth.
type engineObs struct {
	reg    *obs.Registry
	events *obs.EventLog

	fsyncLatency *obs.Histogram // WAL segment fdatasync wall time
	walBatch     *obs.Histogram // records covered per fsync (group commit)
	compRound    *obs.Histogram // merge round host wall time, both compaction modes
	viewRetries  *obs.Counter   // lock-free GET view-validation retries
	epochPins    *obs.Counter   // slab reclamation epochs pinned

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
// private one created at Open).
func (db *DB) Registry() *obs.Registry { return db.obs.reg }

// Events returns the DB's structured event log (Options.Events, or the
// private one created at Open).
func (db *DB) Events() *obs.EventLog { return db.obs.events }

// registerCollector wires the engine's existing stats sweeps into the
// registry: one Gather pulls Stats() and PersistenceStats() and renders
// them as Prometheus series, so /metrics and INFO read identical numbers
// from identical code.
func (db *DB) registerCollector() {
	db.obs.reg.Collect(func(g *obs.Gathered) {
		s := db.Stats()
		const opsHelp = "Engine operations completed, by op."
		g.Counter(`prism_engine_ops_total{op="put"}`, opsHelp, s.Puts)
		g.Counter(`prism_engine_ops_total{op="get"}`, opsHelp, s.Gets)
		g.Counter(`prism_engine_ops_total{op="delete"}`, opsHelp, s.Deletes)
		g.Counter(`prism_engine_ops_total{op="scan"}`, opsHelp, s.Scans)
		const tierHelp = "Reads served, by tier."
		g.Counter(`prism_engine_reads_total{tier="dram"}`, tierHelp, s.GetDRAM)
		g.Counter(`prism_engine_reads_total{tier="nvm"}`, tierHelp, s.GetNVM)
		g.Counter(`prism_engine_reads_total{tier="flash"}`, tierHelp, s.GetFlash)
		g.Counter(`prism_engine_reads_total{tier="miss"}`, tierHelp, s.GetMiss)
		g.Gauge("prism_engine_nvm_read_ratio",
			"Fraction of successful reads served from DRAM or NVM.", s.NVMReadRatio())
		g.Counter("prism_engine_bloom_false_positives_total",
			"Flash probes the SST bloom filter failed to reject.", s.BloomFalsePositives)
		g.Counter("prism_engine_write_stalls_total",
			"Foreground writes stalled by NVM space admission.", s.WriteStalls)
		g.Counter("prism_engine_compactions_total",
			"Compaction jobs completed.", s.Compactions)
		g.Counter("prism_engine_read_triggered_rounds_total",
			"Read-triggered promotion rounds run.", s.ReadTriggeredComps)
		g.Counter("prism_engine_promoted_total",
			"Objects promoted from flash to NVM.", s.Promoted)
		g.Counter("prism_engine_promoted_bytes_total",
			"NVM slot bytes taken by promotions.", s.PromotedBytes)
		g.Counter("prism_engine_promote_no_room_total",
			"Read-triggered rounds that stopped for lack of NVM room and armed a demotion job.", s.PromoteNoRoom)
		g.Counter("prism_engine_compaction_commit_conflicts_total",
			"Per-key commit skips: foreground overwrote a key mid-merge.", s.CommitConflicts)
		g.Counter("prism_engine_compaction_hard_stalls_total",
			"Writes that host-blocked waiting for a background commit.", s.CompactionHardStalls)
		// Appended directly: Gathered.Counter takes an int64, and a hard stall
		// lasts milliseconds.
		g.Points = append(g.Points, obs.Point{
			Name:  "prism_engine_compaction_hard_stall_seconds_total",
			Help:  "Host seconds writes spent hard-stalled.",
			Value: s.CompactionHardStallTime.Seconds(),
		})
		g.Gauge("prism_engine_compaction_backlog",
			"Background compaction jobs pending or running.", float64(s.CompactionBacklog))
		g.Counter("prism_write_batches_total",
			"Write batches applied, on the owner goroutine or directly on their submitter.", s.WriteBatches)
		g.Counter("prism_write_direct_total",
			"Mutations applied on their submitter's goroutine (direct batches; everything in sync write mode).",
			s.DirectWrites)
		g.Histogram("prism_write_batch_ops",
			"Mutations applied per write batch, wherever it ran.",
			obs.UnitCount, s.writeBatchHist())
		g.Counter("prism_write_view_republishes_total",
			"Read-view publications (one per mutating batch).", s.ViewRepublishes)
		g.Counter("prism_write_producer_parks_total",
			"Writers that parked on a full intent ring.", s.ProducerParks)
		g.Gauge("prism_write_queue_depth",
			"Intents waiting in the owner queues.", float64(s.WriteQueueDepth))
		g.Gauge("prism_engine_objects{tier=\"nvm\"}", "Live objects resident, by tier.", float64(s.NVMObjects))
		g.Gauge("prism_engine_objects{tier=\"flash\"}", "Live objects resident, by tier.", float64(s.FlashObjects))

		if ps := db.PersistenceStats(); ps.Durable {
			g.Counter("prism_wal_appended_bytes_total", "WAL record bytes appended.", ps.WALBytes)
			g.Counter("prism_wal_records_total", "WAL records appended.", ps.WALRecords)
			g.Counter("prism_wal_fsyncs_total", "WAL segment fdatasync calls.", ps.WALFsyncs)
			g.Counter("prism_wal_checkpoints_total", "Checkpoint + prune cycles completed.", ps.Checkpoints)
			g.Gauge("prism_wal_segments", "WAL segment files on disk.", float64(ps.WALSegments))
		}

		h := db.Health()
		g.Gauge("prism_health_state",
			"Failure-domain state: 0 healthy, 1 degraded (read-only), 2 failed.",
			float64(h.State))

		g.Counter("prism_events_total", "Structured events emitted.", db.obs.events.Total())
	})
}
