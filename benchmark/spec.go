package main

import (
	"fmt"

	"github.com/prismdb/prismdb"
)

// The load shape is fixed by the box the benchmark is calibrated on (2
// cores): two client goroutines, one connection each, closed loop, sixteen
// requests in flight per connection.
const (
	numConns  = 2
	pipeDepth = 16
	valueSize = 1024
)

// spec is one workload. Op counts are fixed (not time-boxed) so that the
// same seed always drives the engine through the same state trajectory: the
// measured count is opsPerSecond × the requested seconds, sized so that the
// timed phase takes about that long on the calibration box.
type spec struct {
	name string
	why  string

	keys    int
	dram    int64 // page-cache bytes; 0 = the recommended tenth of capacity
	theta   float64
	setFrac float64 // served workloads: share of SETs; 0 = GET only
	durable bool    // DataDir + group-commit WAL
	paper   bool    // bench.Run under the serial lockstep driver, no sockets

	warmupOps    int
	opsPerSecond int
}

var specs = []spec{
	{
		name: "serve-get-hot",
		why:  "20 MiB dataset fits NVM and all but 1% of reads the page cache: RESP, conn flush, view acquire, B-tree and slab read do all the work; sst, bloom, compaction and WAL do none",
		// A page cache just under the data: with the default every read is
		// a DRAM hit of one fixed virtual latency, and virt_get_tail_us
		// would read the same on every run.
		keys: 20000, dram: 20 << 20, theta: 0.99,
		warmupOps: 1 << 20, opsPerSecond: 16000 * numConns * pipeDepth,
	},
	{
		name: "serve-get-cold",
		why:  "200 MiB dataset, 7x NVM and 8x the page cache: bloom, SST index and block reads, cache misses, and the promotion policy with its background merges on the second core",
		// 15 s × 7400 × 32 = 3 552 000 ops: two read-trigger cycles
		// (detect + epoch + cooldown = 222 000 ops) of each of 8 partitions.
		keys: 200000, theta: 0.8,
		warmupOps: 1 << 18, opsPerSecond: 7400 * numConns * pipeDepth,
	},
	{
		name: "serve-mixed-durable",
		why:  "50/50 GET/SET on real files with a group-commit WAL: COW path copies, view republication, write queue, WAL append and fsync, demotion merges, manifest journal beside the read path",
		keys: 100000, theta: 0.99, setFrac: 0.5, durable: true,
		warmupOps: 3 << 16, opsPerSecond: 2700 * numConns * pipeDepth,
	},
	{
		name: "paper-ycsb-a",
		why:  "the paper's Fig 10 YCSB-A point under the serial sync driver, no sockets: virtual metrics are bit-exact, so policy and compaction changes are judged without noise",
		keys: 100000, theta: 0.99, paper: true,
		warmupOps: 300000, opsPerSecond: 100000,
	},
}

func specByName(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// measuredOps is the timed phase's op count for a requested duration,
// always a whole number of pipelined batches on every connection.
func (s spec) measuredOps(seconds int) int {
	n := s.opsPerSecond * seconds
	return n - n%(numConns*pipeDepth)
}

// engineOptions is the served workloads' engine on fresh simulated
// devices: the repo's recommended 256 MiB two-tier deployment at the
// paper's het10 split, with the tracker and key space sized to the
// workload's dataset. The paper's 98%/95% NVM watermarks assume gigabytes
// of headroom; at a 28 MiB budget over 8 partitions that gap is ~100
// objects per compaction job, so the harness widens it exactly as
// bench.Run does for its scaled-down configurations.
func (s spec) engineOptions(dataDir string) prismdb.Options {
	opts := prismdb.RecommendedConfig(prismdb.TierSpec{
		TotalBytes:  256 << 20,
		NVMFraction: 0.11,
		DatasetKeys: s.keys,
		DRAMBytes:   s.dram,
	})
	opts.HighWatermark, opts.LowWatermark = 0.95, 0.75
	if s.durable {
		// The stated flush policy: acknowledge at once, fsync every 64
		// records or 2 ms (the engine's group-mode defaults).
		opts.DataDir = dataDir
		opts.WALSync = prismdb.SyncGroup
	}
	return opts
}

// metricDef names one reported metric. bound is the share of the parent's
// median an end-to-end metric may worsen by; per-layer metrics have none.
type metricDef struct {
	name   string
	unit   string
	better string
	bound  float64
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"virt_kops", "kops/s", "higher", 0.07},
	{"virt_get_tail_us", "us", "lower", 0.20},
	{"nvm_read_ratio", "ratio", "higher", 0.03},
	{"flash_wr_bytes_per_op", "B/op", "lower", 0.25},
}

// perLayer lists the per-layer metrics in report order. A traced run
// (--trace 1) prints every one of them for every workload; a layer the
// workload bypasses reports 0.
var perLayer = []metricDef{
	{name: "client.encode_ns", unit: "ns", better: "lower"},
	{name: "client.batch_rtt_p50_us", unit: "us", better: "lower"},
	{name: "client.batch_rtt_p99_us", unit: "us", better: "lower"},
	{name: "client.batch_rtt_p999_us", unit: "us", better: "lower"},
	{name: "workload.next_ns", unit: "ns", better: "lower"},

	{name: "server.null_engine_ops_per_s", unit: "1/s", better: "higher"},
	{name: "server.self_us_per_op", unit: "us", better: "lower"},
	{name: "server.read_reply_ns", unit: "ns", better: "lower"},
	{name: "server.engine_get_p50_us", unit: "us", better: "lower"},
	{name: "server.engine_get_p99_us", unit: "us", better: "lower"},
	{name: "server.engine_set_p99_us", unit: "us", better: "lower"},
	{name: "server.flush_bytes_p50", unit: "B", better: "higher"},

	{name: "core.get_nvm_ns", unit: "ns", better: "lower"},
	{name: "core.get_flash_ns", unit: "ns", better: "lower"},
	{name: "core.get_miss_ns", unit: "ns", better: "lower"},
	{name: "core.put_ns", unit: "ns", better: "lower"},
	{name: "core.put_queue_wait_ns", unit: "ns", better: "lower"},
	{name: "core.put_apply_ns", unit: "ns", better: "lower"},
	{name: "core.put_wal_append_ns", unit: "ns", better: "lower"},
	{name: "core.put_fsync_wait_ns", unit: "ns", better: "lower"},
	{name: "core.direct_write_ratio", unit: "ratio", better: "higher"},
	{name: "core.write_batch_p50", unit: "count", better: "higher"},
	{name: "core.write_batch_p99", unit: "count", better: "higher"},
	{name: "core.view_republish_per_put", unit: "ratio", better: "lower"},
	{name: "core.producer_parks", unit: "count", better: "lower"},
	{name: "core.get_dram_share", unit: "ratio", better: "higher"},
	{name: "core.get_nvm_share", unit: "ratio", better: "higher"},
	{name: "core.get_flash_share", unit: "ratio", better: "lower"},
	{name: "core.get_miss_share", unit: "ratio", better: "lower"},
	{name: "core.bloom_fp_per_kget", unit: "count", better: "lower"},
	{name: "core.inplace_update_ratio", unit: "ratio", better: "higher"},
	{name: "core.virt_get_p50_us", unit: "us", better: "lower"},
	{name: "core.virt_get_p99_us", unit: "us", better: "lower"},
	{name: "core.virt_set_p99_us", unit: "us", better: "lower"},
	{name: "core.write_stall_virt_ms", unit: "ms", better: "lower"},

	{name: "compaction.rounds_per_mop", unit: "count", better: "lower"},
	{name: "compaction.read_triggered_per_mop", unit: "count", better: "lower"},
	{name: "compaction.virt_time_share", unit: "ratio", better: "lower"},
	{name: "compaction.selection_virt_share", unit: "ratio", better: "lower"},
	{name: "compaction.flash_rd_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "compaction.flash_wr_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "compaction.demoted_per_round", unit: "count", better: "higher"},
	{name: "compaction.promoted_per_round", unit: "count", better: "higher"},
	{name: "compaction.dropped_stale_per_round", unit: "count", better: "higher"},
	{name: "compaction.moved_per_flash_mb", unit: "count", better: "higher"},
	{name: "compaction.commit_conflicts", unit: "count", better: "lower"},
	{name: "compaction.hard_stalls", unit: "count", better: "lower"},
	{name: "compaction.hard_stall_ms", unit: "ms", better: "lower"},
	{name: "compaction.backlog_max", unit: "count", better: "lower"},

	{name: "btree.get_ns", unit: "ns", better: "lower"},
	{name: "btree.insert_ns", unit: "ns", better: "lower"},
	{name: "btree.delete_ns", unit: "ns", better: "lower"},
	{name: "btree.ascend_ns_per_item", unit: "ns", better: "lower"},
	{name: "slab.put_ns", unit: "ns", better: "lower"},
	{name: "slab.read_ns", unit: "ns", better: "lower"},
	{name: "slab.update_ns", unit: "ns", better: "lower"},
	{name: "slab.space_amp", unit: "ratio", better: "lower"},

	{name: "sst.get_hit_ns", unit: "ns", better: "lower"},
	{name: "sst.get_miss_ns", unit: "ns", better: "lower"},
	{name: "sst.build_ns_per_rec", unit: "ns", better: "lower"},
	{name: "sst.iter_next_ns", unit: "ns", better: "lower"},
	{name: "sst.manifest_find_ns", unit: "ns", better: "lower"},
	{name: "sst.manifest_apply_us", unit: "us", better: "lower"},
	{name: "sst.space_amp", unit: "ratio", better: "lower"},
	{name: "bloom.add_ns", unit: "ns", better: "lower"},
	{name: "bloom.may_contain_ns", unit: "ns", better: "lower"},

	{name: "tracker.touch_ns", unit: "ns", better: "lower"},
	{name: "buckets.estimate_ns", unit: "ns", better: "lower"},
	{name: "mapper.should_pin_ns", unit: "ns", better: "lower"},
	{name: "msc.score_ns", unit: "ns", better: "lower"},

	{name: "storage.wal_append_ns", unit: "ns", better: "lower"},
	{name: "storage.wal_batch_ns_per_rec", unit: "ns", better: "lower"},
	{name: "storage.wal_bytes_per_user_byte", unit: "ratio", better: "lower"},
	{name: "storage.wal_fsyncs_per_kput", unit: "count", better: "lower"},
	{name: "storage.fsync_p50_us", unit: "us", better: "lower"},
	{name: "storage.fsync_p99_us", unit: "us", better: "lower"},
	{name: "storage.group_commit_batch_p50", unit: "count", better: "higher"},
	{name: "storage.journal_logedit_us", unit: "us", better: "lower"},
	{name: "storage.checkpoints", unit: "count", better: "lower"},
	{name: "storage.recovery_ms", unit: "ms", better: "lower"},

	{name: "simdev.access_ns", unit: "ns", better: "lower"},
	{name: "simdev.pagecache_touch_ns", unit: "ns", better: "lower"},
	{name: "simdev.pagecache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "simdev.nvm_busy_share", unit: "ratio", better: "lower"},
	{name: "simdev.flash_busy_share", unit: "ratio", better: "lower"},
	{name: "simdev.flash_queue_share", unit: "ratio", better: "lower"},
	{name: "simdev.nvm_wr_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "simdev.flash_rd_bytes_per_op", unit: "B/op", better: "lower"},

	{name: "proc.cpu_us_per_op", unit: "us", better: "lower"},
	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.alloc_bytes_per_op", unit: "B/op", better: "lower"},
	{name: "proc.allocs_per_op", unit: "count", better: "lower"},
	{name: "proc.gc_cycles", unit: "count", better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "higher"},
}
