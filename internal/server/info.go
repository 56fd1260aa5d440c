package server

import (
	"fmt"
	"strings"
	"time"

	"github.com/prismdb/prismdb/internal/core"
)

// info renders the INFO reply: key:value lines grouped into # sections,
// Redis-style, so existing tooling can parse it. An empty section selects
// everything; otherwise only the named section (case-insensitive) is
// rendered. Every number is live — the latency section reads the same
// lock-free histograms the op loop records into (and /metrics exposes), so
// in-flight connections are included, not just completed ones.
func (s *Server) info(section string) string {
	section = strings.ToLower(section)
	want := func(name string) bool { return section == "" || section == name }
	var b strings.Builder

	if want("server") {
		fmt.Fprintf(&b, "# server\r\n")
		fmt.Fprintf(&b, "uptime_seconds:%.1f\r\n", time.Since(s.start).Seconds())
		fmt.Fprintf(&b, "connections_received:%d\r\n", s.connsTotal.Load())
		fmt.Fprintf(&b, "connections_current:%d\r\n", s.connsLive.Load())
		b.WriteString("\r\n")
	}

	if want("health") {
		// Present only for engines that track failure-domain state (a
		// durable core.DB behind the facade); a fake without the method
		// renders nothing rather than guessing.
		if s.heng != nil {
			h := s.heng.Health()
			fmt.Fprintf(&b, "# health\r\n")
			fmt.Fprintf(&b, "health_state:%s\r\n", h.State)
			ro := 0
			if h.ReadOnly {
				ro = 1
			}
			fmt.Fprintf(&b, "read_only:%d\r\n", ro)
			fmt.Fprintf(&b, "health_cause:%s\r\n", h.Cause)
			if !h.Since.IsZero() {
				fmt.Fprintf(&b, "degraded_seconds:%.1f\r\n", time.Since(h.Since).Seconds())
			}
			b.WriteString("\r\n")
		}
	}

	if want("ops") {
		fmt.Fprintf(&b, "# ops\r\n")
		var total int64
		for k := opKind(0); k < opKinds; k++ {
			n := s.cmdCounts[k].Load()
			total += n
			fmt.Fprintf(&b, "cmd_%s:%d\r\n", opNames[k], n)
		}
		fmt.Fprintf(&b, "cmd_total:%d\r\n", total)
		fmt.Fprintf(&b, "errors:%d\r\n", s.errCount.Load())
		b.WriteString("\r\n")
	}

	if want("latency") {
		fmt.Fprintf(&b, "# latency\r\n")
		for k := opKind(0); k < opKinds-1; k++ { // opOther has no latencies
			wall, virt := s.opWall[k].Snapshot(), s.opVirt[k].Snapshot()
			if wall.Count() == 0 {
				continue
			}
			fmt.Fprintf(&b, "%s_count:%d\r\n", opNames[k], wall.Count())
			fmt.Fprintf(&b, "%s_wall_p50_us:%.1f\r\n", opNames[k], us(wall.Quantile(0.5)))
			fmt.Fprintf(&b, "%s_wall_p99_us:%.1f\r\n", opNames[k], us(wall.Quantile(0.99)))
			fmt.Fprintf(&b, "%s_virt_p50_us:%.1f\r\n", opNames[k], us(virt.Quantile(0.5)))
			fmt.Fprintf(&b, "%s_virt_p99_us:%.1f\r\n", opNames[k], us(virt.Quantile(0.99)))
		}
		b.WriteString("\r\n")
	}

	if want("engine") {
		st := s.eng.Stats()
		fmt.Fprintf(&b, "# engine\r\n")
		fmt.Fprintf(&b, "puts:%d\r\n", st.Puts)
		fmt.Fprintf(&b, "gets:%d\r\n", st.Gets)
		fmt.Fprintf(&b, "deletes:%d\r\n", st.Deletes)
		fmt.Fprintf(&b, "scans:%d\r\n", st.Scans)
		fmt.Fprintf(&b, "in_place_updates:%d\r\n", st.InPlaceUpdates)
		fmt.Fprintf(&b, "fresh_inserts:%d\r\n", st.FreshInserts)
		fmt.Fprintf(&b, "compactions:%d\r\n", st.Compactions)
		fmt.Fprintf(&b, "read_triggered_compactions:%d\r\n", st.ReadTriggeredComps)
		fmt.Fprintf(&b, "demoted:%d\r\n", st.Demoted)
		fmt.Fprintf(&b, "promoted:%d\r\n", st.Promoted)
		fmt.Fprintf(&b, "promoted_bytes:%d\r\n", st.PromotedBytes)
		fmt.Fprintf(&b, "promote_no_room:%d\r\n", st.PromoteNoRoom)
		fmt.Fprintf(&b, "dropped_tombstones:%d\r\n", st.DroppedTombstones)
		fmt.Fprintf(&b, "write_stalls:%d\r\n", st.WriteStalls)
		fmt.Fprintf(&b, "write_stall_virt_ms:%.3f\r\n", float64(st.WriteStallTime)/1e6)
		// Async-compaction health: how much background work is in flight
		// right now, how often commits skipped keys a foreground op beat
		// them to, and how often (and for how long, in wall-clock time)
		// writes host-blocked on an uncommitted merge.
		fmt.Fprintf(&b, "compaction_backlog:%d\r\n", st.CompactionBacklog)
		fmt.Fprintf(&b, "compaction_commit_conflicts:%d\r\n", st.CommitConflicts)
		fmt.Fprintf(&b, "compaction_hard_stalls:%d\r\n", st.CompactionHardStalls)
		fmt.Fprintf(&b, "compaction_hard_stall_wall_ms:%.3f\r\n", float64(st.CompactionHardStallTime)/1e6)
		fmt.Fprintf(&b, "nvm_objects:%d\r\n", st.NVMObjects)
		fmt.Fprintf(&b, "flash_objects:%d\r\n", st.FlashObjects)
		fmt.Fprintf(&b, "elapsed_virtual_ms:%.3f\r\n", float64(s.eng.Elapsed())/1e6)
		b.WriteString("\r\n")
	}

	if want("writes") {
		st := s.eng.Stats()
		// Write path health: how well writes are batching
		// (batch size percentiles and the republish-per-batch economy), how
		// deep the intent queues are right now, and whether producers are
		// hitting the ring's backpressure (parks).
		fmt.Fprintf(&b, "# writes\r\n")
		fmt.Fprintf(&b, "write_batches:%d\r\n", st.WriteBatches)
		fmt.Fprintf(&b, "write_direct:%d\r\n", st.DirectWrites)
		fmt.Fprintf(&b, "write_batch_p50:%d\r\n", st.WriteBatchP50)
		fmt.Fprintf(&b, "write_batch_p99:%d\r\n", st.WriteBatchP99)
		fmt.Fprintf(&b, "write_queue_depth:%d\r\n", st.WriteQueueDepth)
		fmt.Fprintf(&b, "producer_parks:%d\r\n", st.ProducerParks)
		fmt.Fprintf(&b, "view_republishes:%d\r\n", st.ViewRepublishes)
		b.WriteString("\r\n")
	}

	if want("persistence") {
		// The section is present only when the engine is durable
		// (core.Options.DataDir): an in-memory engine either lacks the
		// method or reports Durable == false.
		if pe, ok := s.eng.(interface{ PersistenceStats() core.PersistenceStats }); ok {
			if ps := pe.PersistenceStats(); ps.Durable {
				fmt.Fprintf(&b, "# persistence\r\n")
				fmt.Fprintf(&b, "durable:1\r\n")
				fmt.Fprintf(&b, "wal_bytes:%d\r\n", ps.WALBytes)
				fmt.Fprintf(&b, "wal_records:%d\r\n", ps.WALRecords)
				fmt.Fprintf(&b, "wal_fsyncs:%d\r\n", ps.WALFsyncs)
				fmt.Fprintf(&b, "wal_segments:%d\r\n", ps.WALSegments)
				fmt.Fprintf(&b, "group_commit_batch_p50:%d\r\n", ps.GroupCommitBatchP50)
				fmt.Fprintf(&b, "group_commit_batch_p99:%d\r\n", ps.GroupCommitBatchP99)
				fmt.Fprintf(&b, "fsync_p50_us:%.1f\r\n", us(ps.FsyncP50))
				fmt.Fprintf(&b, "fsync_p99_us:%.1f\r\n", us(ps.FsyncP99))
				fmt.Fprintf(&b, "checkpoints:%d\r\n", ps.Checkpoints)
				fmt.Fprintf(&b, "recovery_ms:%.3f\r\n", float64(ps.RecoveryDuration)/1e6)
				fmt.Fprintf(&b, "recovery_records:%d\r\n", ps.RecoveryRecords)
				fmt.Fprintf(&b, "recovery_segments:%d\r\n", ps.RecoverySegments)
				fmt.Fprintf(&b, "last_recovery_truncated_bytes:%d\r\n", ps.LastRecoveryTruncatedBytes)
				fmt.Fprintf(&b, "orphan_ssts_removed:%d\r\n", ps.OrphanSSTsRemoved)
				b.WriteString("\r\n")
			}
		}
	}

	if want("events") {
		// The structured event log: compaction rounds, checkpoints, WAL
		// rotations, recovery outcomes, write stalls — each a single JSON
		// line. A full INFO shows the most recent few; INFO events shows
		// the whole retained ring, oldest first.
		n := 8
		if section == "events" {
			n = 0 // Tail(0) returns everything retained
		}
		fmt.Fprintf(&b, "# events\r\n")
		fmt.Fprintf(&b, "events_total:%d\r\n", s.events.Total())
		for _, line := range s.events.Tail(n) {
			fmt.Fprintf(&b, "event:%s\r\n", line)
		}
		b.WriteString("\r\n")
	}

	if want("tiers") {
		st := s.eng.Stats()
		fmt.Fprintf(&b, "# tiers\r\n")
		hits := st.GetDRAM + st.GetNVM + st.GetFlash
		total := hits + st.GetMiss
		ratio := func(n int64) float64 {
			if total == 0 {
				return 0
			}
			return float64(n) / float64(total)
		}
		fmt.Fprintf(&b, "reads_dram:%d\r\n", st.GetDRAM)
		fmt.Fprintf(&b, "reads_nvm:%d\r\n", st.GetNVM)
		fmt.Fprintf(&b, "reads_flash:%d\r\n", st.GetFlash)
		fmt.Fprintf(&b, "reads_miss:%d\r\n", st.GetMiss)
		// Wasted flash probes: the bloom filter passed but the table read
		// found nothing (or only a tombstone). Filters target ~1% FP.
		fmt.Fprintf(&b, "bloom_false_positives:%d\r\n", st.BloomFalsePositives)
		fmt.Fprintf(&b, "dram_hit_ratio:%.4f\r\n", ratio(st.GetDRAM))
		fmt.Fprintf(&b, "nvm_hit_ratio:%.4f\r\n", ratio(st.GetNVM))
		fmt.Fprintf(&b, "flash_hit_ratio:%.4f\r\n", ratio(st.GetFlash))
		fmt.Fprintf(&b, "miss_ratio:%.4f\r\n", ratio(st.GetMiss))
		fmt.Fprintf(&b, "nvm_read_ratio:%.4f\r\n", st.NVMReadRatio())
		b.WriteString("\r\n")
	}

	return b.String()
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
