package main

import (
	"syscall"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/simdev"
)

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func cpuTime(ru syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// histDelta is the observations a named registry histogram took between a
// phase's two snapshots.
func (ph phase) histDelta(name string) hist {
	return unpack(ph.after.series.FindHist(name)).sub(unpack(ph.before.series.FindHist(name)))
}

// engineLayers fills the core.* and compaction.* metrics that come from
// engine counters. d is the counters' change over ops operations that took
// virt of virtual time; cumulative carries the gauges and percentiles that
// cannot be differenced. flashWritten is the flash device's byte count.
func engineLayers(m map[string]float64, d, cumulative prismdb.Stats, ops float64, virt time.Duration, partitions int, flashWritten int64) {
	puts, gets, rounds := float64(d.Puts), float64(d.Gets), float64(d.Compactions)
	m["core.direct_write_ratio"] = ratio(float64(d.DirectWrites), puts)
	m["core.write_batch_p50"] = float64(cumulative.WriteBatchP50)
	m["core.write_batch_p99"] = float64(cumulative.WriteBatchP99)
	m["core.view_republish_per_put"] = ratio(float64(d.ViewRepublishes), puts)
	m["core.producer_parks"] = float64(d.ProducerParks)
	m["core.get_dram_share"] = ratio(float64(d.GetDRAM), gets)
	m["core.get_nvm_share"] = ratio(float64(d.GetNVM), gets)
	m["core.get_flash_share"] = ratio(float64(d.GetFlash), gets)
	m["core.get_miss_share"] = ratio(float64(d.GetMiss), gets)
	m["core.bloom_fp_per_kget"] = 1000 * ratio(float64(d.BloomFalsePositives), gets)
	m["core.inplace_update_ratio"] = ratio(float64(d.InPlaceUpdates), puts)
	m["core.write_stall_virt_ms"] = float64(d.WriteStallTime) / 1e6

	m["compaction.rounds_per_mop"] = 1e6 * ratio(rounds, ops)
	m["compaction.read_triggered_per_mop"] = 1e6 * ratio(float64(d.ReadTriggeredComps), ops)
	// Each partition has one compaction thread, so the share is of the
	// partitions' combined virtual time.
	m["compaction.virt_time_share"] = ratio(float64(d.CompactionTime), float64(virt)*float64(partitions))
	m["compaction.selection_virt_share"] = ratio(float64(d.SelectionTime), float64(d.CompactionTime))
	m["compaction.flash_rd_bytes_per_op"] = ratio(float64(d.FlashBytesRead), ops)
	m["compaction.flash_wr_bytes_per_op"] = ratio(float64(d.FlashBytesWritten), ops)
	m["compaction.demoted_per_round"] = ratio(float64(d.Demoted), rounds)
	m["compaction.promoted_per_round"] = ratio(float64(d.Promoted), rounds)
	m["compaction.dropped_stale_per_round"] = ratio(float64(d.DroppedStale), rounds)
	m["compaction.moved_per_flash_mb"] = ratio(float64(d.Demoted+d.Promoted), float64(flashWritten)/(1<<20))
	m["compaction.commit_conflicts"] = float64(d.CommitConflicts)
	m["compaction.hard_stalls"] = float64(d.CompactionHardStalls)
	m["compaction.hard_stall_ms"] = float64(d.CompactionHardStallTime) / 1e6
}

// deviceLayers fills the simdev.* metrics that come from device counters
// over virt of virtual time.
func deviceLayers(m map[string]float64, nvm, flash simdev.Stats, nvmLanes, flashLanes int, ops float64, virt time.Duration) {
	m["simdev.nvm_busy_share"] = ratio(float64(nvm.BusyTime), float64(virt)*float64(nvmLanes))
	m["simdev.flash_busy_share"] = ratio(float64(flash.BusyTime), float64(virt)*float64(flashLanes))
	m["simdev.flash_queue_share"] = ratio(float64(flash.QueueTime), float64(virt)*float64(flashLanes))
	m["simdev.nvm_wr_bytes_per_op"] = ratio(float64(nvm.WriteBytes), ops)
	m["simdev.flash_rd_bytes_per_op"] = ratio(float64(flash.ReadBytes), ops)
}

func devDelta(a, b simdev.Stats) simdev.Stats {
	return simdev.Stats{
		ReadOps:    b.ReadOps - a.ReadOps,
		WriteOps:   b.WriteOps - a.WriteOps,
		ReadBytes:  b.ReadBytes - a.ReadBytes,
		WriteBytes: b.WriteBytes - a.WriteBytes,
		BusyTime:   b.BusyTime - a.BusyTime,
		QueueTime:  b.QueueTime - a.QueueTime,
	}
}

// procLayers fills the proc.* metrics from two process snapshots around
// ops operations.
func procLayers(m map[string]float64, before, after snapshot, ops float64) {
	m["proc.cpu_us_per_op"] = ratio(float64(cpuTime(after.ru)-cpuTime(before.ru))/1e3, ops)
	m["proc.peak_rss_mb"] = float64(after.ru.Maxrss) / 1024 // Linux reports KiB
	m["proc.alloc_bytes_per_op"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc), ops)
	m["proc.allocs_per_op"] = ratio(float64(after.mem.Mallocs-before.mem.Mallocs), ops)
	m["proc.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	m["proc.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
}

// counterLayers fills every per-layer metric of a served workload that is
// read from counters around a timed phase.
func (ph phase) counterLayers(m map[string]float64, opts prismdb.Options) {
	ops := float64(ph.ops)
	virt := ph.after.virt - ph.before.virt
	d := statsDelta(ph.before.stats, ph.after.stats)
	nvm, flash := devDelta(ph.before.nvm, ph.after.nvm), devDelta(ph.before.flash, ph.after.flash)
	engineLayers(m, d, ph.after.stats, ops, virt, opts.Partitions, flash.WriteBytes)
	deviceLayers(m, nvm, flash, opts.NVM.Params().Channels, opts.Flash.Params().Channels, ops, virt)
	procLayers(m, ph.before, ph.after, ops)

	getVirt, setVirt := ph.histDelta(histGetVirt), ph.histDelta(histSetVirt)
	m["core.virt_get_p50_us"] = getVirt.quantile(0.50) / 1e3
	m["core.virt_get_p99_us"] = getVirt.quantile(0.99) / 1e3
	m["core.virt_set_p99_us"] = setVirt.quantile(0.99) / 1e3

	getWall, setWall := ph.histDelta(histGetWall), ph.histDelta(histSetWall)
	m["server.engine_get_p50_us"] = getWall.quantile(0.50) / 1e3
	m["server.engine_get_p99_us"] = getWall.quantile(0.99) / 1e3
	m["server.engine_set_p99_us"] = setWall.quantile(0.99) / 1e3
	m["server.flush_bytes_p50"] = ph.histDelta(histFlush).quantile(0.50)

	hits := float64(ph.after.cacheHit - ph.before.cacheHit)
	misses := float64(ph.after.cacheMis - ph.before.cacheMis)
	m["simdev.pagecache_hit_ratio"] = ratio(hits, hits+misses)

	puts := float64(d.Puts)
	wal := float64(ph.after.pers.WALBytes - ph.before.pers.WALBytes)
	m["storage.wal_bytes_per_user_byte"] = ratio(wal, puts*float64(keyLen+valueSize))
	m["storage.wal_fsyncs_per_kput"] = 1000 * ratio(float64(ph.after.pers.WALFsyncs-ph.before.pers.WALFsyncs), puts)
	fsync := ph.histDelta(histFsync)
	m["storage.fsync_p50_us"] = fsync.quantile(0.50) / 1e3
	m["storage.fsync_p99_us"] = fsync.quantile(0.99) / 1e3
	m["storage.group_commit_batch_p50"] = ph.histDelta(histWALBatch).quantile(0.50)
	m["storage.checkpoints"] = float64(ph.after.pers.Checkpoints - ph.before.pers.Checkpoints)
}
