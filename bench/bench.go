// Package bench is the experiment harness that regenerates every table and
// figure of the PrismDB paper's evaluation (§7). Each experiment builds the
// paper's configuration (devices, DRAM ratio, tracker size, pinning
// threshold), loads a dataset, warms up, measures, and prints rows in the
// shape the paper reports. Dataset sizes are scaled down by default
// (Scale); the ratios — NVM:flash 1:5, DRAM:storage 1:10, tracker 20% of
// keys — match the paper at every scale.
package bench

import (
	"fmt"
	"io"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/lsm"
	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/workload"
)

// Scale sizes an experiment. DefaultScale runs in seconds; multiply toward
// the paper's 100 M-key runs with the -scale flag of cmd/prismbench.
type Scale struct {
	Keys      int // dataset keys
	Ops       int // measured operations
	WarmupOps int
	ValueSize int // bytes (paper default 1 KB)
}

// DefaultScale is CI-friendly: ~20 MB dataset.
func DefaultScale() Scale {
	return Scale{Keys: 20000, Ops: 30000, WarmupOps: 15000, ValueSize: 1024}
}

// Mul scales all sizes by f.
func (s Scale) Mul(f float64) Scale {
	s.Keys = int(float64(s.Keys) * f)
	s.Ops = int(float64(s.Ops) * f)
	s.WarmupOps = int(float64(s.WarmupOps) * f)
	return s
}

// System identifies an engine + placement configuration.
type System int

const (
	// SysPrism is PrismDB on two tiers.
	SysPrism System = iota
	// SysRocks is the LSM engine, single-tier or het per Setup.
	SysRocks
	// SysRocksL2C is the LSM with NVM as an L2 cache.
	SysRocksL2C
	// SysRocksRA is the read-aware pinned-compaction LSM (§3).
	SysRocksRA
	// SysMutant is file-granularity placement.
	SysMutant
	// SysSpanDB is the het LSM with SPDK-style WAL.
	SysSpanDB
)

// String names the system as in the paper's legends.
func (s System) String() string {
	switch s {
	case SysPrism:
		return "prismdb"
	case SysRocks:
		return "rocksdb"
	case SysRocksL2C:
		return "rocksdb-l2c"
	case SysRocksRA:
		return "rocksdb-RA"
	case SysMutant:
		return "mutant"
	case SysSpanDB:
		return "spandb"
	}
	return "unknown"
}

// TierKind picks the device type for single-tier setups.
type TierKind string

// Single-tier device kinds.
const (
	TierNVM TierKind = "nvm"
	TierTLC TierKind = "tlc"
	TierQLC TierKind = "qlc"
)

// Setup is one point in the evaluation's configuration space.
type Setup struct {
	System System
	// SingleTier, when non-empty, runs everything on one device kind.
	SingleTier TierKind
	// NVMFraction is the share of database capacity on NVM for
	// multi-tier setups (paper default 1:5 ⇒ ≈0.167; het10 = 0.11).
	NVMFraction float64
	// FsyncWAL enables synchronous logging (Fig 13). PrismDB always
	// persists synchronously by design.
	FsyncWAL bool
	// Policy selects PrismDB's compaction scoring (Fig 6).
	Policy msc.Policy
	// PinningThreshold overrides PrismDB's default 0.7 (Fig 14c).
	PinningThreshold float64
	// Partitions overrides PrismDB's default 8 (Fig 14d).
	Partitions int
	// DisablePromotions turns off the read trigger, and with it promotion
	// rounds (Fig 14b).
	DisablePromotions bool
	// PowerK overrides the power-of-k candidate count (§5.3 ablation).
	PowerK int
	// RangeFiles overrides i, the SSTs per candidate range (§5.2 ablation).
	RangeFiles int
	// TrackerFraction overrides the tracker's share of the key space
	// (paper default 0.2).
	TrackerFraction float64
	// Compaction selects PrismDB's compaction execution mode: "sync" (also
	// the meaning of ""), which runs every merge round inline and makes the
	// virtual-time results bit-reproducible, or "async", the engine default.
	Compaction string
}

// Result is one experiment row.
type Result struct {
	Label          string
	Ops            int
	Elapsed        time.Duration
	ThroughputKops float64
	MeanLatency    time.Duration

	// HostElapsed is the real (host) wall-clock time of the measured
	// phase, and HostKops the host ops/sec — the harness's own speed, as
	// opposed to the simulated throughput above.
	HostElapsed time.Duration
	HostKops    float64

	ReadHist   *metrics.Histogram
	UpdateHist *metrics.Histogram
	ScanHist   *metrics.Histogram

	CostPerGB float64

	// Engine-specific snapshots (nil when not applicable).
	Prism *core.Stats
	LSM   *lsm.Stats

	// Device activity during the measured phase.
	FlashWritten int64
	FlashRead    int64
	NVMWritten   int64
	// Queueing diagnostics.
	FlashBusy  time.Duration
	FlashQueue time.Duration
	NVMBusy    time.Duration
	NVMQueue   time.Duration

	// Wear across the whole run (load + warm-up + measure), for Fig 12.
	FlashWearBytes int64
}

// P is shorthand for a latency quantile of the read histogram.
func (r *Result) P(q float64) time.Duration { return r.ReadHist.Quantile(q) }

// costPerGB computes $/GB of usable capacity for a setup, as in Table 2 /
// Fig 9: the weighted device prices over the database's capacity split.
func costPerGB(setup Setup) float64 {
	if setup.SingleTier != "" {
		switch setup.SingleTier {
		case TierNVM:
			return 2.5
		case TierTLC:
			return 0.31
		default:
			return 0.1
		}
	}
	f := setup.NVMFraction
	return f*2.5 + (1-f)*0.1
}

// kvEngine lets the runner drive PrismDB and every LSM variant uniformly.
type kvEngine interface {
	Put(k, v []byte) (time.Duration, error)
	Get(k []byte) (found bool, lat time.Duration, err error)
	Scan(start []byte, n int) (time.Duration, error)
	Delete(k []byte) (time.Duration, error)
	Elapsed() time.Duration
	ResetStats()
	AdvanceAll()
}

// prismEngine adapts core.DB to the harness interface. It owns a reused
// value buffer so the measured Get loop rides the DB's allocation-free read
// path.
type prismEngine struct {
	db  *core.DB
	buf []byte
}

func (e *prismEngine) Put(k, v []byte) (time.Duration, error) { return e.db.Put(k, v) }
func (e *prismEngine) Get(k []byte) (bool, time.Duration, error) {
	v, tier, lat, err := e.db.GetBuf(k, e.buf)
	if cap(v) > cap(e.buf) {
		e.buf = v[:0]
	}
	return tier != core.TierMiss, lat, err
}

// Scan drains n entries off the engine's streaming iterator without
// materializing results: the measured scan path is the iterator itself, as
// the paper's range queries are (§6).
func (e *prismEngine) Scan(start []byte, n int) (time.Duration, error) {
	it := e.db.NewIterator(start, n)
	for got := 1; got < n && it.Valid(); got++ {
		it.Next()
	}
	err := it.Close()
	return it.Latency(), err
}
func (e *prismEngine) Delete(k []byte) (time.Duration, error) { return e.db.Delete(k) }
func (e *prismEngine) Elapsed() time.Duration                 { return e.db.Elapsed() }
func (e *prismEngine) ResetStats()                            { e.db.ResetStats() }
func (e *prismEngine) AdvanceAll()                            { e.db.AdvanceAll() }

type lsmEngine struct{ db *lsm.DB }

func (e lsmEngine) Put(k, v []byte) (time.Duration, error) { return e.db.Put(k, v) }
func (e lsmEngine) Get(k []byte) (bool, time.Duration, error) {
	_, ok, lat, err := e.db.Get(k)
	return ok, lat, err
}
func (e lsmEngine) Scan(start []byte, n int) (time.Duration, error) {
	_, lat, err := e.db.Scan(start, n)
	return lat, err
}
func (e lsmEngine) Delete(k []byte) (time.Duration, error) { return e.db.Delete(k) }
func (e lsmEngine) Elapsed() time.Duration                 { return e.db.Elapsed() }
func (e lsmEngine) ResetStats()                            { e.db.ResetStats() }
func (e lsmEngine) AdvanceAll()                            { e.db.AdvanceAll() }

// compactionMode resolves a Setup's compaction mode; see Setup.Compaction.
// Anything other than "sync", "async", or "" is an error — a typo silently
// falling back to sync could make a mode-comparison experiment compare a
// mode against itself.
func compactionMode(setup Setup) (core.CompactionMode, error) {
	switch setup.Compaction {
	case "", "sync":
		return core.CompactionSync, nil
	case "async":
		return core.CompactionAsync, nil
	default:
		return 0, fmt.Errorf("bench: Setup.Compaction must be %q, %q, or empty, got %q", "sync", "async", setup.Compaction)
	}
}

// rig is a fully built experiment instance.
type rig struct {
	eng   kvEngine
	prism *core.DB
	lsm   *lsm.DB
	nvm   *simdev.Device
	flash *simdev.Device
}

// build constructs devices and an engine for a setup at a scale.
func build(setup Setup, sc Scale, wl workload.Config) (*rig, error) {
	datasetBytes := int64(sc.Keys) * int64(sc.ValueSize+64)
	dram := datasetBytes / 10
	if dram < 1<<20 {
		dram = 1 << 20
	}

	r := &rig{}
	// All engine CPU (foreground and compaction) contends for the
	// paper's 10-core cgroup.
	cpuPool := simdev.NewCPUPool(10)
	if setup.SingleTier != "" {
		cap := datasetBytes * 4
		switch setup.SingleTier {
		case TierNVM:
			r.nvm = simdev.New(simdev.NVMParams(cap))
		case TierTLC:
			r.nvm = simdev.New(simdev.TLCParams(cap))
		default:
			r.nvm = simdev.New(simdev.QLCParams(cap))
		}
		r.flash = r.nvm
	} else {
		f := setup.NVMFraction
		if f <= 0 {
			f = 1.0 / 6 // the paper's default 1:5 NVM:QLC
		}
		nvmBytes := int64(float64(datasetBytes) * f)
		nvmCap := nvmBytes * 3 // device headroom over the engine budget
		if nvmCap < 8<<20 {
			nvmCap = 8 << 20 // slab extents round up per partition and class
		}
		r.nvm = simdev.New(simdev.NVMParams(nvmCap))
		r.flash = simdev.New(simdev.QLCParams(datasetBytes * 4))
	}

	switch setup.System {
	case SysPrism:
		parts := setup.Partitions
		if parts <= 0 {
			parts = 8
		}
		pol := setup.Policy
		pin := setup.PinningThreshold
		if pin == 0 {
			pin = 0.7
		}
		nvmBudget := int64(float64(datasetBytes) * setup.NVMFraction)
		if setup.SingleTier != "" {
			nvmBudget = datasetBytes // degenerate: all on the single device
		}
		cmode, err := compactionMode(setup)
		if err != nil {
			return nil, err
		}
		opts := core.Options{
			CompactionMode:   cmode,
			Partitions:       parts,
			NVM:              r.nvm,
			Flash:            r.flash,
			Cache:            simdev.NewPageCache(dram),
			NVMBudget:        nvmBudget,
			TrackerCapacity:  trackerCap(setup, sc),
			PinningThreshold: pin,
			Policy:           pol,
			KeySpace:         uint64(sc.Keys) * 4,
			BucketKeys:       maxInt(sc.Keys/64, 64),
			TargetSSTBytes:   int64(sc.Keys) * int64(sc.ValueSize) / 64,
			// The paper's 98%/95% watermarks assume NVM headroom in the
			// GBs; at scaled-down budgets the gap must stay a useful
			// number of objects wide.
			HighWatermark: 0.95,
			LowWatermark:  0.75,
			PowerK:        setup.PowerK,
			RangeFiles:    setup.RangeFiles,
			Seed:          42,
			CPUPool:       cpuPool,
			// PrismDB's per-op CPU: no memtable, no block decode, no
			// multi-level probing — the paper measures it saving ~1.9×
			// CPU versus LSM engines (§7.2).
			CPU: core.CPUCosts{
				OpBase:      2 * time.Microsecond,
				IndexOp:     1 * time.Microsecond,
				BloomCheck:  300 * time.Nanosecond,
				MergePerKey: 1 * time.Microsecond,
			},
		}
		if opts.TargetSSTBytes < 64<<10 {
			opts.TargetSSTBytes = 64 << 10
		}
		if !setup.DisablePromotions {
			opts.ReadTrigger = core.DefaultReadTrigger(sc.Keys)
		}
		db, err := core.Open(opts)
		if err != nil {
			return nil, err
		}
		r.prism = db
		r.eng = &prismEngine{db: db}
	default:
		cfg := lsm.Config{
			// The LSM's cache models block cache + OS page cache
			// together: the paper gives LSMs 20% of DRAM as block cache
			// and the rest serves reads through the kernel page cache.
			BlockCacheBytes: dram,
			FsyncWAL:        setup.FsyncWAL,
			CPUPool:         cpuPool,
		}
		if setup.SingleTier != "" {
			// Single-tier tree: standard 10× leveling.
			cfg.MemtableBytes = maxI64(datasetBytes/64, 64<<10)
			cfg.TargetSSTBytes = cfg.MemtableBytes
			cfg.L1TargetBytes = maxI64(datasetBytes/16, 128<<10)
		} else {
			// Multi-tier tree shaped like §3: L0–L3 on NVM hold the NVM
			// fraction of data, L4 on flash holds the rest. With ratio
			// r = 4, L1+L2+L3 = L1·(1+4+16), so L1 = f·D/21.
			f := setup.NVMFraction
			if f <= 0 {
				f = 1.0 / 6
			}
			nvmData := int64(f * float64(datasetBytes))
			cfg.LevelRatio = 4
			cfg.L1TargetBytes = maxI64(nvmData/21, 128<<10)
			cfg.TargetSSTBytes = maxI64(cfg.L1TargetBytes/2, 64<<10)
			cfg.MemtableBytes = cfg.TargetSSTBytes
			// Re-size the NVM device to fit the tree's NVM share plus
			// compaction transients (the experiment's cost label comes
			// from NVMFraction, not device headroom).
			levelSum := cfg.L1TargetBytes * (1 + 4 + 16)
			nvmCap := 2*levelSum + 16*cfg.TargetSSTBytes
			r.nvm = simdev.New(simdev.NVMParams(nvmCap))
		}
		// A single-tier setup made r.nvm and r.flash one device.
		cfg.NVM, cfg.Flash = r.nvm, r.flash
		switch setup.System {
		case SysRocks:
			cfg.Mode = lsm.Het
		case SysRocksL2C:
			cfg.Mode = lsm.L2Cache
			cfg.NVMCacheBytes = int64(setup.NVMFraction * float64(datasetBytes))
		case SysRocksRA:
			cfg.Mode = lsm.RA
			cfg.TrackerCapacity = sc.Keys / 5
		case SysMutant:
			cfg.Mode = lsm.MutantMode
			cfg.MigrateEvery = maxInt(sc.Keys/4, 1000)
		case SysSpanDB:
			cfg.Mode = lsm.SpanDBMode
		}
		db, err := lsm.Open(cfg)
		if err != nil {
			return nil, err
		}
		r.lsm = db
		r.eng = lsmEngine{db}
	}
	return r, nil
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// trackerCap sizes the tracker: TrackerFraction of the key space, default
// the paper's 20%.
func trackerCap(setup Setup, sc Scale) int {
	f := setup.TrackerFraction
	if f <= 0 {
		f = 0.2
	}
	n := int(float64(sc.Keys) * f)
	if n < 64 {
		n = 64
	}
	return n
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Run executes one experiment: load, warm-up, measure.
func Run(setup Setup, sc Scale, wl workload.Config, label string) (*Result, error) {
	r, err := build(setup, sc, wl)
	if err != nil {
		return nil, err
	}
	gen := workload.NewGenerator(wl)

	// Load phase.
	for i := 0; i < sc.Keys; i++ {
		if _, err := r.eng.Put(gen.LoadKey(i), gen.LoadValue(i)); err != nil {
			return nil, fmt.Errorf("bench: load key %d: %w", i, err)
		}
	}
	// Warm-up.
	if err := r.driveOps(gen, sc.WarmupOps, nil, nil, nil); err != nil {
		return nil, fmt.Errorf("bench: warmup: %w", err)
	}

	// Measure: align all worker clocks to a common origin first, so the
	// max-clock throughput accounting isn't skewed by load-phase drift.
	r.eng.AdvanceAll()
	r.eng.ResetStats()
	r.nvm.ResetStats()
	if r.flash != r.nvm {
		r.flash.ResetStats()
	}
	startElapsed := r.eng.Elapsed()
	res := &Result{
		Label:      label,
		ReadHist:   metrics.NewHistogram(),
		UpdateHist: metrics.NewHistogram(),
		ScanHist:   metrics.NewHistogram(),
		CostPerGB:  costPerGB(setup),
	}
	hostStart := time.Now()
	if err := r.driveOps(gen, sc.Ops, res.ReadHist, res.UpdateHist, res.ScanHist); err != nil {
		return nil, fmt.Errorf("bench: measure: %w", err)
	}
	res.HostElapsed = time.Since(hostStart)
	if res.HostElapsed > 0 {
		res.HostKops = float64(sc.Ops) / res.HostElapsed.Seconds() / 1000
	}
	res.Ops = sc.Ops
	res.Elapsed = r.eng.Elapsed() - startElapsed
	if res.Elapsed > 0 {
		res.ThroughputKops = float64(sc.Ops) / res.Elapsed.Seconds() / 1000
	}
	total := metrics.NewHistogram()
	total.Merge(res.ReadHist)
	total.Merge(res.UpdateHist)
	total.Merge(res.ScanHist)
	res.MeanLatency = total.Mean()

	if r.prism != nil {
		st := r.prism.Stats()
		res.Prism = &st
	}
	if r.lsm != nil {
		st := r.lsm.Stats()
		res.LSM = &st
	}
	fst := r.flash.Stats()
	res.FlashWritten = fst.WriteBytes
	res.FlashRead = fst.ReadBytes
	res.FlashBusy = fst.BusyTime
	res.FlashQueue = fst.QueueTime
	nst := r.nvm.Stats()
	res.NVMWritten = nst.WriteBytes
	res.NVMBusy = nst.BusyTime
	res.NVMQueue = nst.QueueTime
	res.FlashWearBytes = r.flash.WearBytes()
	return res, nil
}

// driveOps executes n generated operations. For PrismDB it routes ops to
// per-partition queues and always executes the next op of the partition
// whose clock is furthest behind — discrete-event-style lockstep that keeps
// shared-device and shared-CPU queueing causally consistent and the run
// deterministic. (The LSM engine does the equivalent internally by issuing
// each request on its furthest-behind client clock.)
func (r *rig) driveOps(gen *workload.Generator, n int, rh, uh, sh *metrics.Histogram) error {
	if r.prism == nil {
		for i := 0; i < n; i++ {
			if err := applyOp(r.eng, gen.Next(), rh, uh, sh); err != nil {
				return err
			}
		}
		return nil
	}
	parts := r.prism.Partitions()
	queues, err := workload.Shard(gen, n, parts, r.prism.PartitionOf)
	if err != nil {
		return err
	}
	clocks := make([]time.Duration, parts)
	for i := 0; i < parts; i++ {
		clocks[i] = r.prism.PartitionClock(i)
	}
	remaining := n
	var valBuf []byte // the dispatched op's value; the engine copies it
	for remaining > 0 {
		best := -1
		for i := range queues {
			if len(queues[i]) == 0 {
				continue
			}
			if best < 0 || clocks[i] < clocks[best] {
				best = i
			}
		}
		op := queues[best][0]
		queues[best] = queues[best][1:]
		valBuf = gen.FillValue(&op, valBuf)
		if err := applyOp(r.eng, op, rh, uh, sh); err != nil {
			return err
		}
		// Every op — scans included — charges only its issuing partition's
		// clock (the iterator reads foreign partitions' data but never
		// advances their clocks), so one clock refresh suffices.
		clocks[best] = r.prism.PartitionClock(best)
		remaining--
	}
	return nil
}

// applyOp dispatches one generated operation, recording latency by kind.
func applyOp(eng kvEngine, op workload.Op, rh, uh, sh *metrics.Histogram) error {
	switch op.Kind {
	case workload.OpRead:
		_, lat, err := eng.Get(op.Key)
		if err != nil {
			return err
		}
		if rh != nil {
			rh.Record(lat)
		}
	case workload.OpUpdate, workload.OpInsert:
		lat, err := eng.Put(op.Key, op.Value)
		if err != nil {
			return err
		}
		if uh != nil {
			uh.Record(lat)
		}
	case workload.OpScan:
		lat, err := eng.Scan(op.Key, op.ScanLen)
		if err != nil {
			return err
		}
		if sh != nil {
			sh.Record(lat)
		}
	case workload.OpDelete:
		lat, err := eng.Delete(op.Key)
		if err != nil {
			return err
		}
		if uh != nil {
			uh.Record(lat)
		}
	case workload.OpRMW:
		_, lat1, err := eng.Get(op.Key)
		if err != nil {
			return err
		}
		lat2, err := eng.Put(op.Key, op.Value)
		if err != nil {
			return err
		}
		if uh != nil {
			uh.Record(lat1 + lat2)
		}
	}
	return nil
}

// table prints aligned rows.
func table(w io.Writer, header []string, rows [][]string) {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(w, "%-*s  ", widths[i], c)
		}
		fmt.Fprintln(w)
	}
	line(header)
	for _, row := range rows {
		line(row)
	}
}

func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// us prints a latency in microseconds, to a tenth below 10 ms and whole at
// and above it, where a tenth is noise: a column of latencies then stays as
// wide as its shorter entries need.
func us(d time.Duration) string {
	if d >= 10*time.Millisecond {
		return fmt.Sprintf("%.0fµs", float64(d)/1000)
	}
	return fmt.Sprintf("%.1fµs", float64(d)/1000)
}
