// Package lsm implements a leveled log-structured merge tree in the style
// of RocksDB, used as the baseline family in the paper's evaluation:
// multi-tier "het" RocksDB (levels mapped to devices, like SpanDB's
// layout), RocksDB with an NVM L2 cache, read-aware RocksDB with pinned
// compactions (the authors' year-one prototype, §3), Mutant's
// file-granularity placement, and SpanDB's SPDK-backed WAL. Single-tier
// RocksDB is the het tree given one device as both tiers. All variants
// share this one engine, differing only in placement/logging policy, so
// comparisons against PrismDB isolate data-structure and compaction design.
package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/tracker"
)

// Mode selects the tiered-placement policy (the baselines of §7).
type Mode int

const (
	// Het maps the top nvmLevels levels plus WAL and memtable flushes to
	// NVM and the rest to flash — the multi-tier RocksDB of §3 and
	// SpanDB's data layout. Given one device as both NVM and Flash, it is
	// single-tier RocksDB.
	Het Mode = iota
	// L2Cache places all data on flash and uses NVM purely as a
	// second-level block cache (MyNVM / SQL Server / Orthus style, §2).
	L2Cache
	// RA is the authors' read-aware prototype (§3): Het plus pinned
	// compactions that retain popular objects in the NVM levels.
	RA
	// MutantMode tracks per-SST popularity and migrates whole files
	// between tiers (Mutant, §2).
	MutantMode
	// SpanDBMode is Het with SPDK-style parallel WAL logging on NVM.
	SpanDBMode
)

// The tree's fixed shape and costs. It has five levels, L0–L4, of which
// Het, RA and SpanDB place the first nvmLevels on NVM (§3: L0–L3 on NVM, L4
// on QLC), and writes SSTs in sst.DefaultBlockSize blocks. RA mode pins an
// object whose tracker clock is at least raPinClock to the NVM levels during
// boundary compactions. SpanDB pays spdkPollOp of busy-poll CPU per logged
// write.
const (
	numLevels  = 5
	nvmLevels  = 4
	raPinClock = 1
	spdkPollOp = 2 * time.Microsecond

	// clients is the number of concurrent client threads, each with its
	// own virtual clock (paper: 8 clients).
	clients = 8
	// prefetch enables the scan readahead RocksDB ships with (§7.2).
	prefetch = true
	// L0 is compacted once it holds l0CompactionTrigger files, and writes
	// stall while it holds l0StallLimit.
	l0CompactionTrigger = 4
	l0StallLimit        = 12
	// RocksDB-style per-op CPU: opBase covers the memtable probe, bloom
	// checks per level, block decode and binary search (~2× PrismDB's);
	// mergePerKey is charged per key a compaction or scan merges.
	opBase      = 6 * time.Microsecond
	mergePerKey = 1500 * time.Nanosecond
)

// Config parameterizes an LSM DB.
type Config struct {
	Mode Mode

	// NVM and Flash are the two tiers. A single-tier tree is given one
	// device as both.
	NVM   *simdev.Device
	Flash *simdev.Device

	// LevelRatio is the size ratio between adjacent levels (default 10).
	LevelRatio int
	// L1TargetBytes is L1's target size (default 4×TargetSSTBytes).
	L1TargetBytes int64

	// MemtableBytes bounds the memtable (default 1 MiB scaled).
	MemtableBytes int64
	// TargetSSTBytes is the SST size (default 4 MiB).
	TargetSSTBytes int64

	// BlockCacheBytes is the DRAM block cache (the paper gives LSMs 20%
	// of DRAM as block cache).
	BlockCacheBytes int64
	// NVMCacheBytes is the L2 cache capacity for L2Cache mode (defaults
	// to the NVM device capacity).
	NVMCacheBytes int64

	// FsyncWAL persists every write's WAL entry before acknowledging
	// (Fig 13). Non-fsync WAL writes are buffered and flushed in 1 MiB
	// batches in the background, as RocksDB does by default.
	FsyncWAL bool

	// TrackerCapacity bounds RA mode's popularity tracker.
	TrackerCapacity int

	// MutantMode: ops between file-temperature migration passes.
	MigrateEvery int

	// CPUPool, when set, routes all CPU charges (foreground ops and
	// compaction merging) through a shared fixed-core pool, modeling the
	// paper's 10-core cgroup.
	CPUPool *simdev.CPUPool
}

func (c Config) withDefaults() (Config, error) {
	if c.NVM == nil || c.Flash == nil {
		return c, fmt.Errorf("lsm: NVM and Flash devices are required")
	}
	if c.LevelRatio <= 1 {
		c.LevelRatio = 10
	}
	if c.TargetSSTBytes <= 0 {
		c.TargetSSTBytes = 4 << 20
	}
	if c.L1TargetBytes <= 0 {
		c.L1TargetBytes = 4 * c.TargetSSTBytes
	}
	if c.MemtableBytes <= 0 {
		c.MemtableBytes = 1 << 20
	}
	if c.TrackerCapacity <= 0 {
		c.TrackerCapacity = 1 << 14
	}
	if c.MigrateEvery <= 0 {
		c.MigrateEvery = 10000
	}
	if c.Mode == L2Cache && c.NVMCacheBytes <= 0 {
		c.NVMCacheBytes = c.NVM.Params().Capacity
	}
	return c, nil
}

// levelFile wraps a table with placement and temperature metadata.
type levelFile struct {
	t     *sst.Table
	dev   *simdev.Device
	reads int64 // Mutant temperature
}

// Stats aggregates engine activity.
type Stats struct {
	Puts, Gets, Scans int64

	// Read sources (Fig 2b): memtable, block cache, then level index.
	ReadsMemtable   int64
	ReadsBlockCache int64
	ReadsPerLevel   []int64
	ReadsMiss       int64

	Flushes     int64
	Compactions int64
	// Compaction wall time split by output tier (Fig 2a).
	CompactionTimeNVM   time.Duration
	CompactionTimeFlash time.Duration
	CompactionKeys      int64

	Migrations     int64 // Mutant file moves
	MigrationBytes int64

	PinnedKeys int64 // RA keys retained in NVM levels

	WALBytes    int64
	WriteStalls int64
	StallTime   time.Duration
}

// DB is a leveled LSM instance.
type DB struct {
	cfg Config

	mu      sync.Mutex
	clients []*simdev.Clock

	mem        memtable
	levels     [][]*levelFile // levels[0] newest-last; levels[1+] sorted, disjoint
	seq        uint64
	blockCache *simdev.PageCache
	nvmCache   *simdev.PageCache
	trk        *tracker.Tracker
	cursor     []int // round-robin compaction cursor per level

	walNextFree int64
	walBuf      int64
	opsCount    int64

	// Background thread pool model: one dedicated flush thread plus
	// NumBGThreads compaction threads (RocksDB-style). Jobs chain on
	// their thread's clock, so background work cannot exceed the pool's
	// real-time capacity; writers stall when flushing falls behind.
	flushThread int64
	bgThreads   []int64

	stats Stats
}

// Open creates an LSM DB.
func Open(cfg Config) (*DB, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	db := &DB{
		cfg:        cfg,
		levels:     make([][]*levelFile, numLevels),
		blockCache: simdev.NewPageCache(cfg.BlockCacheBytes),
		cursor:     make([]int, numLevels),
		trk:        tracker.New(cfg.TrackerCapacity),
	}
	if cfg.Mode == L2Cache {
		db.nvmCache = simdev.NewPageCache(cfg.NVMCacheBytes)
	}
	for i := 0; i < clients; i++ {
		db.clients = append(db.clients, simdev.NewClock())
	}
	db.stats.ReadsPerLevel = make([]int64, numLevels)
	db.bgThreads = make([]int64, 4)
	return db, nil
}

// deviceForLevel maps a level to its tier per the placement mode.
func (db *DB) deviceForLevel(level int) *simdev.Device {
	switch db.cfg.Mode {
	case L2Cache:
		return db.cfg.Flash // all data on flash; NVM is cache only
	case MutantMode:
		// Mutant writes new files to fast storage while it has room;
		// the migration pass later rebalances by temperature.
		if level < numLevels-1 && db.cfg.NVM.Free() > 2*db.cfg.TargetSSTBytes {
			return db.cfg.NVM
		}
		return db.cfg.Flash
	default: // Het, RA, SpanDB
		if level < nvmLevels {
			return db.cfg.NVM
		}
		return db.cfg.Flash
	}
}

// walDevice is where the log lives.
func (db *DB) walDevice() *simdev.Device {
	if db.cfg.Mode == L2Cache {
		return db.cfg.Flash
	}
	return db.cfg.NVM
}

// chargeCPU charges CPU work to clk, through the shared core pool when one
// is configured.
func (db *DB) chargeCPU(clk *simdev.Clock, d time.Duration) {
	if d <= 0 {
		return
	}
	if db.cfg.CPUPool != nil {
		db.cfg.CPUPool.Charge(clk, d)
	} else {
		clk.Advance(d)
	}
}

// nextClock picks the client whose clock is furthest behind — the client
// thread that would physically issue the next request. Driving clients in
// virtual-time order keeps device and CPU queueing causally consistent.
func (db *DB) nextClock() *simdev.Clock {
	best := db.clients[0]
	for _, c := range db.clients[1:] {
		if c.Now() < best.Now() {
			best = c
		}
	}
	return best
}

// walAppend charges WAL I/O per the logging policy (Fig 13).
func (db *DB) walAppend(clk *simdev.Clock, n int64) {
	db.stats.WALBytes += n
	dev := db.walDevice()
	if !db.cfg.FsyncWAL {
		// Buffered logging: flushed asynchronously in 1 MiB batches.
		db.walBuf += n
		if db.walBuf >= 1<<20 {
			// Occupies the device without blocking the writer's clock.
			dev.Access(clk.Now(), simdev.OpWrite, db.walBuf)
			db.walBuf = 0
		}
		return
	}
	if db.cfg.Mode == SpanDBMode {
		// SPDK logging: parallel, low-latency syncs straight to NVM,
		// paid for with busy-poll CPU.
		db.chargeCPU(clk, spdkPollOp)
		dev.AccessClk(clk, simdev.OpWrite, n)
		return
	}
	// RocksDB group commit: a single WAL writer serializes all clients,
	// and each committed group pays the fdatasync/coordination overhead
	// on top of the device write.
	const fsyncOverhead = 20 * time.Microsecond
	start := clk.Now()
	if db.walNextFree > start {
		start = db.walNextFree
	}
	done := dev.Access(start, simdev.OpWrite, n) + int64(fsyncOverhead)
	db.walNextFree = done
	clk.AdvanceTo(done)
}

// Put writes key=value.
func (db *DB) Put(key, value []byte) (time.Duration, error) {
	return db.write(key, value, false)
}

// Delete writes a tombstone.
func (db *DB) Delete(key []byte) (time.Duration, error) {
	return db.write(key, nil, true)
}

func (db *DB) write(key, value []byte, tomb bool) (time.Duration, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	clk := db.nextClock()
	start := clk.Now()
	db.chargeCPU(clk, opBase)

	// Stall if the flush thread is still busy with the previous memtable
	// (max_write_buffer_number-style backpressure) when this one is full,
	// or if L0 is saturated while compactions lag.
	if db.mem.bytes >= db.cfg.MemtableBytes && db.flushThread > clk.Now() {
		stall := clk.AdvanceTo(db.flushThread)
		db.stats.WriteStalls++
		db.stats.StallTime += stall
	}
	if len(db.levels[0]) >= l0StallLimit {
		minBG := db.bgThreads[0]
		for _, t := range db.bgThreads[1:] {
			if t < minBG {
				minBG = t
			}
		}
		if minBG > clk.Now() {
			stall := clk.AdvanceTo(minBG)
			db.stats.WriteStalls++
			db.stats.StallTime += stall
		}
	}

	db.walAppend(clk, int64(len(key)+len(value)+16))
	db.seq++
	db.mem.put(sst.Record{
		Key:       append([]byte(nil), key...),
		Value:     append([]byte(nil), value...),
		Version:   db.seq,
		Tombstone: tomb,
	})
	db.stats.Puts++
	db.opsCount++
	db.background(clk)
	db.backgroundMutant(clk)
	return time.Duration(clk.Now() - start), nil
}

// Get returns the newest value for key and the serving level.
func (db *DB) Get(key []byte) ([]byte, bool, time.Duration, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	clk := db.nextClock()
	start := clk.Now()
	db.chargeCPU(clk, opBase)
	db.stats.Gets++
	db.opsCount++
	db.trk.Touch(key, 0, tracker.NVM)
	db.backgroundMutant(clk)

	if r, ok := db.mem.get(key); ok {
		db.stats.ReadsMemtable++
		if r.Tombstone {
			return nil, false, time.Duration(clk.Now() - start), nil
		}
		return r.Value, true, time.Duration(clk.Now() - start), nil
	}
	// L0: newest file first.
	for i := len(db.levels[0]) - 1; i >= 0; i-- {
		lf := db.levels[0][i]
		if !lf.t.Overlaps(key, key) || !lf.t.MayContain(key) {
			continue
		}
		if v, found, done := db.tableGet(clk, lf, key, 0, start); done {
			return v, found, time.Duration(clk.Now() - start), nil
		}
	}
	for level := 1; level < len(db.levels); level++ {
		files := db.levels[level]
		idx := sort.Search(len(files), func(i int) bool {
			return bytes.Compare(files[i].t.Largest(), key) >= 0
		})
		if idx == len(files) || !files[idx].t.Overlaps(key, key) {
			continue
		}
		lf := files[idx]
		if !lf.t.MayContain(key) {
			continue
		}
		if v, found, done := db.tableGet(clk, lf, key, level, start); done {
			return v, found, time.Duration(clk.Now() - start), nil
		}
	}
	db.stats.ReadsMiss++
	return nil, false, time.Duration(clk.Now() - start), nil
}

// tableGet probes one table; done=false means "key not here, keep looking".
func (db *DB) tableGet(clk *simdev.Clock, lf *levelFile, key []byte, level int, opStart int64) ([]byte, bool, bool) {
	before := clk.Now()
	rec, found, err := lf.t.Get(clk, key)
	if err != nil || !found {
		return nil, false, false
	}
	lf.reads++
	if clk.Now() == before {
		db.stats.ReadsBlockCache++
	} else {
		db.stats.ReadsPerLevel[level]++
	}
	if rec.Tombstone {
		return nil, false, true
	}
	return rec.Value, true, true
}

// Scan returns up to n live records with keys ≥ start in order.
func (db *DB) Scan(start []byte, n int) ([]ScanKV, time.Duration, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	clk := db.nextClock()
	t0 := clk.Now()
	db.chargeCPU(clk, opBase)
	db.stats.Scans++
	db.opsCount++

	// Gather per-source sorted streams, then k-way merge by (key, seq).
	type cursor struct {
		recs []sst.Record
		pos  int
	}
	var cursors []*cursor
	memC := &cursor{}
	db.mem.ascend(start, func(r sst.Record) bool {
		memC.recs = append(memC.recs, r)
		return len(memC.recs) < n*2
	})
	cursors = append(cursors, memC)
	collect := func(lf *levelFile, limit int) *cursor {
		c := &cursor{}
		for it := lf.t.Iter(clk, start, prefetch); it.Valid() && len(c.recs) < limit; it.Next() {
			c.recs = append(c.recs, it.Record())
		}
		return c
	}
	for _, lf := range db.levels[0] {
		if bytes.Compare(lf.t.Largest(), start) >= 0 {
			cursors = append(cursors, collect(lf, n*2))
		}
	}
	for level := 1; level < len(db.levels); level++ {
		c := &cursor{}
		taken := 0
		for _, lf := range db.levels[level] {
			if bytes.Compare(lf.t.Largest(), start) < 0 {
				continue
			}
			sub := collect(lf, n*2-taken)
			c.recs = append(c.recs, sub.recs...)
			taken += len(sub.recs)
			if taken >= n*2 {
				break
			}
		}
		cursors = append(cursors, c)
	}

	var out []ScanKV
	for len(out) < n {
		// Find smallest key; among equals, newest seq wins.
		bestI := -1
		for i, c := range cursors {
			if c.pos >= len(c.recs) {
				continue
			}
			if bestI < 0 {
				bestI = i
				continue
			}
			cmp := bytes.Compare(c.recs[c.pos].Key, cursors[bestI].recs[cursors[bestI].pos].Key)
			if cmp < 0 || (cmp == 0 && c.recs[c.pos].Version > cursors[bestI].recs[cursors[bestI].pos].Version) {
				bestI = i
			}
		}
		if bestI < 0 {
			break
		}
		best := cursors[bestI].recs[cursors[bestI].pos]
		// Skip shadowed duplicates across all cursors.
		for _, c := range cursors {
			for c.pos < len(c.recs) && bytes.Equal(c.recs[c.pos].Key, best.Key) {
				c.pos++
			}
		}
		db.chargeCPU(clk, mergePerKey)
		if !best.Tombstone {
			// An SST record is a view of its table's storage, which a
			// later compaction recycles: the result owns copies.
			out = append(out, ScanKV{bytes.Clone(best.Key), bytes.Clone(best.Value)})
		}
	}
	return out, time.Duration(clk.Now() - t0), nil
}

// ScanKV is a scan result element.
type ScanKV struct {
	Key   []byte
	Value []byte
}

// Stats returns a snapshot of counters.
func (db *DB) Stats() Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	s := db.stats
	s.ReadsPerLevel = append([]int64(nil), db.stats.ReadsPerLevel...)
	return s
}

// ResetStats zeroes counters between warm-up and measurement.
func (db *DB) ResetStats() {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.stats = Stats{ReadsPerLevel: make([]int64, numLevels)}
}

// Elapsed returns the maximum client clock. Background flushes and
// compactions that run past it are not included.
func (db *DB) Elapsed() time.Duration {
	db.mu.Lock()
	defer db.mu.Unlock()
	var maxNs int64
	for _, c := range db.clients {
		if c.Now() > maxNs {
			maxNs = c.Now()
		}
	}
	return time.Duration(maxNs)
}

// AdvanceAll aligns every client clock to the latest of them, so
// measurement phases start from a common time origin. Background work still
// running past that time is not waited for.
func (db *DB) AdvanceAll() {
	now := int64(db.Elapsed())
	db.mu.Lock()
	for _, c := range db.clients {
		c.AdvanceTo(now)
	}
	db.mu.Unlock()
}
