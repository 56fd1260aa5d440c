// Package core implements the PrismDB engine: a partitioned, shared-nothing
// key-value store spanning an NVM tier (slab files, §4.1) and a flash tier
// (a sorted log of SST files), with multi-tiered storage compaction (§5)
// moving objects between them based on popularity and compaction cost.
package core

import (
	"fmt"
	"time"

	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/storage"
)

// CPUCosts models per-operation CPU time charged to worker and compaction
// clocks. The evaluation's CPU-vs-I/O breakdowns (§3, Fig 6) emerge from
// these charges; the defaults are loosely calibrated to the per-op costs of
// the C++ implementation's data structures.
type CPUCosts struct {
	// OpBase covers request dispatch, partition-lock handoff, and the
	// tracker update on the critical path.
	OpBase time.Duration
	// IndexOp is a B-tree lookup/insert/delete.
	IndexOp time.Duration
	// BloomCheck is one SST filter probe plus index-block navigation.
	BloomCheck time.Duration
	// MergePerKey is the per-record cost of compaction merge-sorting.
	MergePerKey time.Duration
}

// DefaultCPUCosts returns the standard cost model.
func DefaultCPUCosts() CPUCosts {
	return CPUCosts{
		OpBase:      500 * time.Nanosecond,
		IndexOp:     300 * time.Nanosecond,
		BloomCheck:  100 * time.Nanosecond,
		MergePerKey: 200 * time.Nanosecond,
	}
}

// The CPU cost of MSC scoring, charged to the compaction clock (§5.3):
// precise-MSC pays per object scored (a mapper lookup plus B-tree and
// SST-index navigation), approx-MSC per bucket read.
const (
	preciseScanPerObject = 2 * time.Microsecond
	approxPerBucket      = 100 * time.Nanosecond
)

// ReadTriggerOptions configure read-triggered compactions (§5.3): the
// detection → invocation → monitoring state machine that promotes hot flash
// objects under read-heavy workloads.
type ReadTriggerOptions struct {
	// Enabled turns the mechanism on.
	Enabled bool
	// Epoch is the invocation window in client operations (paper default
	// 1 M; scale with dataset size).
	Epoch int
	// Cooldown is the pause after an unproductive epoch (paper default
	// 10 M operations).
	Cooldown int
	// MinFlashFraction is the fraction of tracked keys on flash above
	// which detection fires.
	MinFlashFraction float64
}

// DefaultReadTrigger returns the paper's defaults scaled by dataset size.
func DefaultReadTrigger(datasetKeys int) ReadTriggerOptions {
	epoch := datasetKeys / 10
	if epoch < 1000 {
		epoch = 1000
	}
	return ReadTriggerOptions{
		Enabled:          true,
		Epoch:            epoch,
		Cooldown:         epoch * 10,
		MinFlashFraction: 0.25,
	}
}

// The read trigger's fixed thresholds: detection fires only while reads
// are at least readHeavyFraction of the operations, and an epoch of
// promotion counts as productive only if it lifts the NVM read ratio by
// improveDelta (the paper's 1%).
const (
	readHeavyFraction = 0.80
	improveDelta      = 0.01
)

// CompactionMode selects where compaction work runs relative to the
// foreground request path.
type CompactionMode int

const (
	// CompactionAsync (the default) runs the demotion job and read-triggered
	// promotion rounds on a per-partition background worker: the trigger
	// (watermark crossing, read-trigger state machine) flags the worker and
	// returns, so foreground operations only ever take short critical
	// sections. The worker releases the partition lock around a round's
	// reads, merge, SST writes and manifest install, and between small
	// chunks of its commit, where every planned mutation is validated
	// against the live index (a key overwritten or deleted while the merge
	// ran is never clobbered). Host wall-clock time no longer charges a
	// whole multi-SST merge to one unlucky foreground write.
	CompactionAsync CompactionMode = iota
	// CompactionSync has no worker goroutine: the same job runs on the op
	// that crossed the watermark, and never lets go of the partition lock.
	// With a serial caller nothing then depends on goroutine scheduling, so
	// virtual-time results are bit-reproducible run to run, which is what
	// the bench harness and deterministic tests want.
	//
	// The virtual-time model is the same in both modes: compaction I/O runs
	// on a background clock, its reclaimed space matures at each round's
	// virtual completion, and writers that outrun compaction stall.
	CompactionSync
)

// String names the mode.
func (m CompactionMode) String() string {
	if m == CompactionSync {
		return "sync"
	}
	return "async"
}

// WriteMode has no effect: there is one write path (writequeue.go), and
// every write batch folds the lock-free readers' state. The type, its two
// constants and Options.WriteMode are kept until the repo benchmark stops
// setting them, and then deleted.
type WriteMode int

const (
	// WriteAsync is the zero value. It has no effect.
	WriteAsync WriteMode = iota
	// WriteSync has no effect.
	WriteSync
)

// String names the mode.
func (m WriteMode) String() string {
	if m == WriteSync {
		return "sync"
	}
	return "async"
}

// Options configure a DB. NVM and Flash are required; zero values elsewhere
// take the documented defaults.
type Options struct {
	// Partitions is the number of shared-nothing partitions, each with a
	// dedicated worker and compaction job (paper default: one per core).
	Partitions int

	// NVM and Flash are the two storage tiers.
	NVM   *simdev.Device
	Flash *simdev.Device

	// Cache models the OS page cache (DRAM). Shared by both tiers.
	Cache *simdev.PageCache

	// NVMBudget is the total NVM bytes the DB may use for slabs plus
	// flash index/filter metadata. Defaults to the NVM device capacity.
	NVMBudget int64

	// TrackerCapacity bounds the popularity tracker (total across
	// partitions; the paper uses 10–20% of the database's keys).
	TrackerCapacity int

	// PinningThreshold is the fraction of tracked objects pinned to NVM
	// (paper default 0.7 of the tracker).
	PinningThreshold float64

	// HighWatermark / LowWatermark bound NVM usage: compaction triggers
	// at high (default 0.98) and demotes until usage falls below low
	// (default 0.95).
	HighWatermark float64
	LowWatermark  float64

	// RangeFiles is i, the number of consecutive SST files per candidate
	// compaction key range (§5.2, default 1).
	RangeFiles int

	// PowerK is the number of candidate ranges scored per compaction
	// (power-of-k choices, §5.3, default 8).
	PowerK int

	// Policy selects the compaction scoring policy (default approx-MSC).
	Policy msc.Policy

	// ReadTrigger configures read-triggered compactions.
	ReadTrigger ReadTriggerOptions

	// CompactionMode selects background (async, the default) or inline
	// (sync) compaction execution; see the constants for the trade-off.
	CompactionMode CompactionMode

	// WriteMode has no effect; nothing reads it (see the type).
	WriteMode WriteMode

	// KeyIndex maps a key to a dense index in [0, KeySpace), used for
	// bucket statistics and range partitioning. Defaults to parsing the
	// decimal digits embedded in the key.
	KeyIndex func([]byte) uint64

	// KeySpace is the size of the key-index domain (defaults 1<<20).
	KeySpace uint64

	// BucketKeys is the approx-MSC bucket size in keys (§6; the paper
	// default equals the average keys per SST file).
	BucketKeys int

	// TargetSSTBytes is the flash SST file size (default 4 MiB).
	TargetSSTBytes int64

	// RangePartitioning routes keys to partitions by key order rather
	// than by hash (recommended for scan-heavy workloads, §4.1).
	RangePartitioning bool

	// ScanPrefetch enables SST readahead during scans. The paper leaves
	// a prefetcher as future work (§7.2, its one lost workload); this
	// implements the same block-readahead RocksDB ships with.
	ScanPrefetch bool

	// DataDir selects the durable storage backend: when non-empty, slab
	// and SST bytes live in real files under this directory, every write
	// is logged to a write-ahead log, and Open recovers the directory's
	// state (see prismdb.go's Durability section). Empty (the default)
	// keeps the in-memory simdev backend — nothing survives the process,
	// and simulated results stay byte-identical run to run.
	DataDir string

	// WALSync selects when acknowledged writes are durable (DataDir mode
	// only): storage.SyncEvery (default; group-committed fsync before
	// every ack), storage.SyncGroup (background fsync every WALFsyncEvery
	// records or every 2 ms), or storage.SyncNone.
	WALSync storage.SyncMode

	// WALFsyncEvery is SyncGroup's batch size in records (default 64).
	WALFsyncEvery int

	// WALSegmentBytes is the WAL segment rotation threshold (default
	// 8 MiB); each rotation checkpoints the slab files and prunes the
	// covered segments.
	WALSegmentBytes int64

	// IOStallDeadline, when positive, arms the WAL I/O stall watchdog
	// (DataDir mode only): a single WAL write, fsync, or checkpoint call
	// that stays in flight longer than the deadline is declared stalled,
	// waiters fail with storage.ErrIOStalled instead of hanging, and the
	// DB degrades to read-only. Zero (the default) disables the watchdog —
	// simulated and test workloads routinely sit idle for longer than any
	// sensible deadline.
	IOStallDeadline time.Duration

	// ScrubInterval, when positive, starts the background scrubber
	// (DataDir mode only): a low-priority goroutine that cycles through
	// every slab slot and SST block, verifying stored CRCs. A rotted SST
	// block quarantines its table (reads fall through to other tiers); a
	// rotted slab slot — unrecoverable — moves the DB to Failed. Zero (the
	// default) disables scrubbing.
	ScrubInterval time.Duration

	// Faults, when set, injects deterministic I/O failures into the file
	// backend (testing hook; DataDir mode only).
	Faults *storage.FaultInjector

	// Metrics, when set, is the obs registry the DB registers its
	// instruments and collectors into, so an embedding server can serve
	// engine and server series from one /metrics endpoint. Nil makes the
	// DB create a private registry (instruments are always live —
	// benchmark numbers include their cost); reach it via DB.Registry.
	Metrics *obs.Registry

	// Events, when set, receives the engine's structured events
	// (compaction rounds, checkpoints, WAL rotations, recovery outcomes,
	// write stalls). Nil makes the DB create a private bounded log;
	// reach it via DB.Events.
	Events *obs.EventLog

	// Seed drives the engine's random choices (candidate selection,
	// boundary-clock sampling).
	Seed int64

	// CPU is the CPU cost model.
	CPU CPUCosts

	// CPUPool, when set, routes all engine CPU charges through a shared
	// fixed-core pool so foreground requests and background compactions
	// contend for cores as they do on the paper's 10-core cgroup.
	CPUPool *simdev.CPUPool
}

// withDefaults validates opts and fills defaults.
func (o Options) withDefaults() (Options, error) {
	if o.NVM == nil || o.Flash == nil {
		return o, fmt.Errorf("core: Options.NVM and Options.Flash are required")
	}
	if o.Partitions <= 0 {
		o.Partitions = 1
	}
	if o.Cache == nil {
		o.Cache = simdev.NewPageCache(0)
	}
	if o.NVMBudget <= 0 {
		o.NVMBudget = o.NVM.Params().Capacity
	}
	if o.TrackerCapacity <= 0 {
		o.TrackerCapacity = 1 << 16
	}
	if o.PinningThreshold == 0 {
		o.PinningThreshold = 0.7
	}
	if o.HighWatermark == 0 {
		o.HighWatermark = 0.98
	}
	if o.LowWatermark == 0 {
		o.LowWatermark = 0.95
	}
	if o.LowWatermark >= o.HighWatermark {
		return o, fmt.Errorf("core: LowWatermark %v must be below HighWatermark %v",
			o.LowWatermark, o.HighWatermark)
	}
	if o.RangeFiles <= 0 {
		o.RangeFiles = 1
	}
	if o.PowerK <= 0 {
		o.PowerK = 8
	}
	if o.KeyIndex == nil {
		o.KeyIndex = DefaultKeyIndex
	}
	if o.KeySpace == 0 {
		o.KeySpace = 1 << 20
	}
	// The bucket map and range partitioner index dense arrays by the key
	// index, so results must stay inside [0, KeySpace). Harness keys are in
	// range by construction, but arbitrary client keys (digit overflow, the
	// FNV fallback, custom KeyIndex bugs) arrive over the network and must
	// fold instead of panicking.
	userIdx, space := o.KeyIndex, o.KeySpace
	o.KeyIndex = func(key []byte) uint64 {
		idx := userIdx(key)
		if idx >= space {
			idx %= space
		}
		return idx
	}
	if o.TargetSSTBytes <= 0 {
		o.TargetSSTBytes = 4 << 20
	}
	if o.BucketKeys <= 0 {
		// Default: average keys per SST (paper §6). Assume ~1 KB objects.
		o.BucketKeys = int(o.TargetSSTBytes / 1024)
		if o.BucketKeys < 64 {
			o.BucketKeys = 64
		}
	}
	if o.CPU == (CPUCosts{}) {
		o.CPU = DefaultCPUCosts()
	}
	return o, nil
}

// DefaultKeyIndex extracts the decimal digits of a key into a uint64:
// "user000123" → 123. Keys without digits hash to a stable value derived
// from their bytes. Workload generators use fixed-width decimal keys, so
// lexicographic and numeric order coincide.
func DefaultKeyIndex(key []byte) uint64 {
	var n uint64
	sawDigit := false
	for _, b := range key {
		if b >= '0' && b <= '9' {
			n = n*10 + uint64(b-'0')
			sawDigit = true
		}
	}
	if sawDigit {
		return n
	}
	// FNV fallback for non-numeric keys.
	var h uint64 = 14695981039346656037
	for _, b := range key {
		h ^= uint64(b)
		h *= 1099511628211
	}
	return h
}
