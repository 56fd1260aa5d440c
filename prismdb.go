// Package prismdb is a key-value store for two-tier NVMe storage, a Go
// reproduction of "Efficient Compactions Between Storage Tiers with
// PrismDB" (Raina, Lu, Cidon, Freedman — ASPLOS 2023).
//
// PrismDB keeps hot objects in slab files on a fast NVM tier (fast random
// writes, in-place updates) and cold objects in a sorted log of SST files
// on a cheap dense-flash tier (large sequential writes). A clock-based
// tracker estimates object popularity, a mapper enforces a pinning
// threshold over the tracker's clock-value distribution, and the
// multi-tiered storage compaction (MSC) metric — benefit (coldness demoted)
// over cost (flash I/O per migrated byte) — selects which key ranges to
// compact between tiers. Under read-heavy workloads, read-triggered
// compactions promote hot flash objects back to NVM.
//
// The storage tiers are simulated NVMe devices (package simdev) with the
// latency, bandwidth, endurance, and cost parameters of the paper's Intel
// Optane P5800X and Intel 660p QLC drives; all engine time runs on virtual
// clocks, so throughput and latency results are reproducible and fast to
// generate while preserving every queueing and contention effect the paper
// depends on.
//
// Quickstart:
//
//	cfg := prismdb.RecommendedConfig(prismdb.TierSpec{
//		TotalBytes:  1 << 30, // 1 GiB database
//		NVMFraction: 0.11,    // ~10% NVM, 90% QLC — the paper's het10
//	})
//	db, err := prismdb.Open(cfg)
//	...
//	db.Put([]byte("user42"), []byte("v1"))
//	v, tier, lat, err := db.Get([]byte("user42"))
//
// The package's examples, which go test runs, carry this on to Scan and
// Delete, an iterator's snapshot, and the engine served over a socket.
//
// # Performance
//
// The foreground read path is allocation-free and sublinear. Each
// partition's manifest publishes its live SST file set as an immutable
// copy-on-write snapshot behind an atomic pointer, refcounted once per
// snapshot: a Get acquires the snapshot with two atomic operations, no
// lock, and no per-table refcount traffic, and the disjoint sorted tables
// are probed with a single binary search instead of a linear overlap scan.
// NVM slab reads land in per-partition recycled slot buffers; GetBuf lets
// the caller supply the value buffer, making an NVM- or page-cache-hit
// read perform zero heap allocations — with no lock taken at all (see the
// Concurrency section); testing.AllocsPerRun guards in internal/core pin
// this at 0 allocs/op, including after concurrent churn. Get is GetBuf
// with a nil buffer: one allocation for the returned value.
//
// A compaction merge moves each record's bytes once. A round rewrites a
// whole SST to move a few dozen records, so nearly all of its host work is
// carrying unchanged bytes; they go from the input table's storage straight
// into the output table's. The merge reads an input table as read-only views
// of the file's own extents (one ReadAt of the data section into a reused
// buffer when files are real), the SST writer encodes into extent-sized
// chunks that the output file adopts as its storage (one WriteAt per chunk
// when files are real), and a retired table's extents go to a bounded
// per-device free list the next writer draws from: a steady-state round
// allocates a few percent of the table it rewrites. Ownership rule: a record
// view belongs to its table and lives only while the manifest references
// that table, that is until the round's commit — whatever outlives the round
// (an index key, an async round's promotion candidates) is copied where it
// is retained, and readers never see a recycled extent because the manifest
// snapshot they hold keeps the table referenced. BenchmarkMergeRound in
// internal/core is this stage's own number (ns and bytes allocated per
// merged record), with a test pinning the allocation budget.
//
// Partitions are shared-nothing, but they share the simulated devices and
// the CPU pool, so the bench package drives them in lockstep from one
// goroutine: ops are sharded into per-partition streams (routed via
// PartitionOf) and the next op always comes from the partition whose
// virtual clock is furthest behind. Cross-partition device and CPU queueing
// is then causally ordered and every virtual-time result is exact, run
// after run. Concurrent callers are the serving layer's business (see
// Concurrency below), measured on wall clocks by the repo benchmark.
//
// To reproduce the paper's numbers: `go run ./cmd/prismbench -exp all`
// prints every table and figure of §7 (bench.Experiments is the one list),
// and `go test ./bench/` pins the same tables at a small scale byte for
// byte against bench/testdata/golden (`make goldens` rewrites them when a
// policy change moves them on purpose). Wall-clock numbers (served GETs,
// contended reads and writes, WAL fsync modes, compaction beside foreground
// traffic) come from `bash benchmark/run.sh`, which repeats its runs,
// records the environment and carries calibrated bounds; see
// benchmark/README.md.
//
// # Concurrency
//
// The paper's engine is shared-nothing with one thread per partition, so it
// serializes everything behind the partition lock. This implementation
// serves a goroutine-per-connection front end, where a hot partition would
// turn that lock into a convoy around every ~µs read — so the point-read
// path is lock-free:
//
//   - Get and GetBuf (and therefore MGET on the server) never take the
//     partition lock. Each partition publishes an immutable read view
//     behind an atomic pointer: a copy-on-write B-tree root (package btree
//     path-copies every insert and delete, so a loaded root is a frozen
//     index) paired with the refcounted manifest snapshot of the flash file
//     set. A reader acquires the view with two atomics, resolves the key
//     against the frozen index or the snapshot's tables, and releases it.
//
//   - Publication rule: every mutation that changes what a reader could
//     observe structurally — a B-tree insert/delete, a manifest change, a
//     compaction commit chunk — republishes the view under the partition
//     lock before the operation returns, so a GET issued after a PUT's
//     reply always observes that PUT (read-your-writes). Within a commit
//     the manifest always installs before B-tree entries drop, so any
//     published pairing finds a demoted key on at least one side, newest
//     version winning. In-place slab updates do not republish: readers
//     pick the new bytes straight off the (internally synchronized) slab
//     file.
//
//   - NVM slot reads are validated, not pinned: a reader trusts a slot
//     only if the decoded record's key equals the requested key. A slot
//     freed, recycled, or mid-move under a stale view fails validation;
//     the reader retries against the current view and, after a few
//     failures, falls back to the locked path (churn that hot is already
//     serializing on the writer side). Scans and both compaction modes
//     keep their existing locking.
//
//   - Writes are BATCHED PER PARTITION, and there is one write path: a Put
//     or Delete is a batch of one, a PutBatch's pairs for one partition a
//     batch of N, a replayed WAL record a batch of one that is not logged
//     again, and every batch is applied by the same function as ONE
//     critical section: one lock hold, one B-tree spine copy (same-epoch
//     nodes mutate in place between snapshots), one WAL group append
//     carrying every record (one fsync under group commit), and one
//     read-view republication. No goroutine of its own applies writes. An
//     uncontended batch — lock free, nothing queued — is applied on its
//     caller. Under contention the caller appends its intents to the
//     partition's write queue as one run and takes the lock; unless an
//     earlier leader has applied them by then, it leads: it applies up to
//     128 queued intents at a time, whoever queued them, as one batch,
//     until its own are applied (the write group of LevelDB and RocksDB) —
//     so N concurrent writers cost ~1/N of the per-operation locking,
//     logging, and publication work. Ack semantics do not depend on the
//     route: the caller returns only after its own op is applied (and
//     durable, per Options.WALSync), each op is charged its own
//     virtual-time interval on the partition clock exactly as if applied
//     serially, and the view republishes before any ack — read-your-writes
//     holds. If admission control has to block a batch in host time
//     (releasing the lock), the batch first logs and publishes what it has
//     applied, so log order always equals apply order, and no other leader
//     starts a batch until it completes. Options.WriteMode only sets how
//     often a batch folds read state: every few batches (WriteAsync, the
//     default) or every batch (WriteSync, bit-reproducible serial benches,
//     which a serial caller matches within a few percent either way).
//     PutBatch (the server's MSET and pipelined-SET fast path) submits all
//     of a call's pairs for one partition together, in batch order.
//     Stats reports WriteBatches, DirectWrites, batch-size percentiles,
//     queue depth, and ProducerParks; the server's INFO writes section
//     mirrors them.
//
//   - Virtual-clock semantics for off-lock reads: each GET runs a private
//     clock seeded from the partition's published frontier (an atomic
//     max of the worker clock and every completed read's end time),
//     charges its CPU and device time there, and folds the end time back
//     with one atomic max. Serially that reproduces the locked path's
//     sequencing exactly — each op begins where the previous one ended —
//     while concurrent GETs overlap in virtual time and queue only on the
//     simulated device channels, as real concurrent requests would.
//
//   - Read stats (Gets, tier counters, BloomFalsePositives) accumulate in
//     sharded atomic counters, and popularity touches in a bounded
//     lock-free ring (512 entries; a full ring drops touches rather than
//     delaying a read). Whoever next takes the partition lock — any write,
//     a stats call, or a reader's periodic non-blocking TryLock (every 16
//     reads) — drains both into the guarded stats, tracker, buckets, and
//     read-trigger machine. Popularity and trigger staleness is therefore
//     bounded by roughly one drain cadence per reader plus one ring, and
//     collapses to near zero under any write traffic.
//
// # Iterators
//
// Scans are streamed, not materialized: NewIterator returns the paper's
// two-level iterator (§6) — per partition, a cursor over the NVM B-tree
// index merged with block-streaming cursors over the flash SST log, NVM
// versions shadowing flash on ties and tombstones annihilating at the
// merge point — lifted to the DB level with a k-way heap merge across
// partitions, identical under range and hash partitioning. Scan is a thin
// wrapper that drains an iterator into a []KV.
//
// Consistency model: an iterator reads the same published view a GET does.
// Creating one takes, per partition, a reference on that view — the
// copy-on-write index root paired with the manifest snapshot (the flash
// file set, refcounted so compactions cannot delete SSTs mid-scan) — and
// pins a slab epoch (NVM slots freed by concurrent deletes or compaction
// demotions stay readable and unrecycled, and in-place updates go
// copy-on-write, until the iterator closes). Nothing is copied, so creation
// is O(partitions) whatever the index sizes. The iterator therefore
// observes each key exactly once with its value as of creation, across
// concurrent puts, deletes, and compactions, however far it is drained and
// wherever it is sought; partitions pin sequentially at creation, so the
// consistency point is per-partition, as usual for per-shard snapshots.
//
// Clock ownership: a scan charges every device read and CPU cost — across
// however many partitions its merge reads — to a private clock seeded
// from the issuing partition (the partition owning the start key), folded
// back into that partition's worker clock at Close. Foreign partitions'
// clocks never advance on behalf of someone else's scan, so per-partition
// virtual-time causality stays exact however many connections scan at once
// (TestIteratorClockOwnership). A warm
// Iterator.Next is zero-allocation on the NVM path (keys alias the B-tree
// snapshot, values view the iterator's slot buffer), pinned by a
// testing.AllocsPerRun guard like the read path's.
//
// # Compaction
//
// Compaction work comes in two kinds. Demotion merges move cold objects
// from NVM to flash when usage crosses the high watermark: an MSC-selected
// key range's unpinned NVM objects are merged with its SST files into new
// ones. Read-triggered promotion rounds (§5.3) bring hot flash objects
// back, and rewrite nothing: a round picks the range with the most popular
// flash-only keys, takes from the tracker those whose clock value the
// mapper pins outright, point-reads each through the ordinary read path,
// and copies them into the slabs up to the high watermark. The identical
// flash version stays behind, shadowed by the NVM copy. A
// round that runs out of room arms a demotion job, which frees cold objects
// down to the low watermark for the next round — so a read-heavy workload
// swaps hot objects for cold ones, and the only flash writes are
// cost-benefit-selected demotions. Stats.ReadTriggeredComps, Promoted,
// PromotedBytes and PromoteNoRoom (rounds that armed a demotion) tell a
// working swap from a starved one.
//
// A promoted copy is clean until a write of its key (put, delete, batch or
// replayed record) or its leaving NVM: each partition marks its clean
// copies in DRAM, so a reopened DB has none, and every NVM object recovers
// dirty. A clean copy's flash version is not stale. A merge round evicts a
// demoting clean copy without writing it — the flash version it read back
// identical in key, version and value stays, in a block carried over or
// re-encoded for other reasons — and keeps the flash version of a pinned
// clean copy. So a promoted object's round trip, flash → NVM copy → eviction,
// costs no flash write (Stats.CleanEvictions, FlashVersionsKept). A copy
// that does not match the flash record the round read is demoted like a
// dirty one: a wrong mark can cost a rewrite, never a value.
//
// A merge round writes a flash page only when an object moves into it.
// PrismDB's SSTs are page-aligned: every data block starts on a device page
// and is padded with zeros to the next one (RocksDB's block_align), so a
// flash GET reads one page. A round re-encodes only the input blocks a
// demoting record changes — a record replaced, inserted or deleted by a
// tombstone — and carries every other block into its output table
// verbatim: the same bytes, CRC and last key, on pages of their own. Those
// pages are charged no flash write, as a device that remaps extents would
// not write them — a Linux reflink (FICLONERANGE on XFS or Btrfs) or an FTL
// SHARE command (Oh et al., SIGMOD '16); the new table's index, filter and
// footer are written, and stand for the extent-map update. Stats counts the
// written bytes as FlashBytesWritten and the remapped ones as
// FlashBytesRemapped. A key the mapper keeps in NVM changes no block: the
// flash version under a pinned dirty one is stale, but dropping it frees no
// NVM, so it stays until its block is re-encoded for another reason, the key
// is demoted (its NVM version replaces it) or deleted (the delete finds it
// through the table's filter and leaves a tombstone that takes it). Reads
// and merges prefer the NVM version, and flash holds at most one version of
// a key, so the extra space is bounded by the pinned set. A round whose
// demoting records are all evicted clean copies or tombstones that shadow
// nothing writes and retires no table, whatever it pins. A round still reads
// its whole range (the output filter needs every key), and MSC's cost term
// still prices a full rewrite.
// Tables in the packed layout — what earlier versions wrote, and what the
// LSM baselines still write — open and merge like any other; their blocks
// are re-encoded, since none of them sits on pages of its own. A forced
// round — the space-safety demotion that ignores pinning after two rounds
// that freed nothing — under approx- or precise-MSC ranks every candidate
// range by the NVM objects the index holds in it, in one walk of the index,
// not by the bucket estimate or a sample of ranges. So does the round after
// a selection miss, one whose range held nothing to demote, with pinning
// still applied. An input
// table that does not read back whole stops its round before the merge and
// degrades the DB: the round retires nothing, so no record is lost.
//
// Each kind of job is one piece of code. A demotion merge round has three
// phases: prepare (classify the range's NVM objects into demoting and
// pinned, pin a slab reclamation epoch), execute (read the demoting records
// and the overlapping SSTs, merge, write the output SSTs, install the
// manifest) and commit (validate every planned mutation against the live
// index — the pinned epoch forces concurrent overwrites copy-on-write, so an
// unchanged slot location proves an unchanged record — then free the slot
// and flip index/bucket/tracker state, banking the reclaimed space; a key
// overwritten or deleted meanwhile keeps its newer version and counts in
// Stats.CommitConflicts). Nothing is freed before the manifest edit is
// durable, so a failed edit aborts the round with every record where it was
// and degrades the DB. Options.CompactionMode decides who runs the jobs and
// whether they let go of the partition lock:
//
// CompactionAsync (default): each partition owns a background worker. The
// trigger (watermark crossing, read-trigger state machine) flags it and
// returns, so a foreground SET never pays a multi-SST merge in wall-clock
// time. The worker releases the lock around a merge round's execute phase
// and between small chunks of its commit — foreground gets/puts/scans
// proceed concurrently — and around a promotion round's reads and between
// chunks of its inserts. Writers whose space-admission credit runs dry
// while reclaim is still inside an uncommitted merge block until the next
// commit (Stats.CompactionHardStalls), so writes can never outrun the
// worker unboundedly.
//
// CompactionSync: no worker; the same jobs run on the op that triggered
// them and never release the lock. Virtual-time results are
// bit-reproducible, which the bench harness and deterministic tests
// rely on; the cost is that one unlucky foreground write absorbs the job's
// wall-clock time and every other client on the partition queues behind it.
//
// Both modes share the same virtual-time model: compaction I/O runs on a
// background-priority clock serialized per partition (a new job starts no
// earlier than the previous one's virtual completion). A round's independent
// NVM page I/O — the reads of the records it demotes, and its commit's slot
// frees — is issued as one batch across the device's channels, so the round
// waits for the slowest request, not their sum. Reclaimed space only becomes
// admissible when the frees that pay for it complete, commit chunk by commit
// chunk — writes that outrun compaction stall (§4.2). Knobs that
// matter: HighWatermark/LowWatermark set the trigger point and the
// per-job demotion target (their gap bounds how much one job does),
// PinningThreshold and TrackerCapacity decide what demotes at all,
// RangeFiles/PowerK/Policy shape range selection, and ReadTrigger governs
// the promotion side. DrainCompactions (and
// AdvanceAll, which calls it) waits for background workers to go idle —
// call it before asserting on Stats or NVM usage in tests and harness
// phase boundaries.
//
// # Durability
//
// By default the database is a simulation: file bytes live in memory and
// vanish with the process, which keeps tests and experiments deterministic.
// Setting Options.DataDir turns on the real-file backend (internal/storage)
// without changing any virtual-time behavior: the simulated devices keep
// modeling latency and queueing exactly as before, but every slab and SST
// byte is delegated to a real file under the data directory, and the engine
// adds the three classic pieces of crash safety on top:
//
//   - A group-commit write-ahead log (wal/). Writers frame put/del records
//     into a buffer under a short lock; a single flusher turns whatever
//     accumulated into one write and one fdatasync, so concurrent writers
//     share fsyncs instead of paying one each. Options.WALSync picks the
//     acknowledgement contract: SyncEvery (default) acks only after the
//     record's fsync — kill -9 loses nothing acknowledged; SyncGroup acks
//     immediately and fsyncs every WALFsyncEvery records or every 2 ms — a
//     crash loses at most that window; SyncNone leaves durability to the
//     OS (a process crash still loses nothing, since records reach the page
//     cache promptly; only power loss is exposed).
//
//   - A journaled manifest (MANIFEST-NNNNNN + CURRENT). Each compaction
//     commit appends one fsynced add/remove edit, so commits are
//     crash-atomic: after a crash the journal contains the whole edit or
//     none of it. The journal compacts into a fresh snapshot file once it
//     grows, with an atomic rename swinging CURRENT.
//
//   - Recovery on Open. The manifest journal is replayed (a torn final edit
//     is dropped — it was never acknowledged), SSTs not in the journal's
//     live set are deleted as orphans of uncommitted compactions, slab and
//     SST files are re-adopted by the devices, and the WAL tail is replayed
//     through the ordinary write paths — tolerating a torn final record,
//     but failing loudly on checksum corruption anywhere else. Replay is
//     idempotent because slab writes land before their WAL records: the
//     recovered state is always at least as new as the log.
//
// There is deliberately no memtable flush: a checkpoint is just "fsync the
// slab files", which the WAL triggers at each segment rotation before
// pruning the covered segments, bounding both log size and recovery time.
// A LOCK file (flock) excludes concurrent opens of one data directory;
// Close flushes and fsyncs the WAL, checkpoints, prunes, and releases the
// lock, so a clean reopen replays nothing. PersistenceStats (and the
// server's INFO persistence section) reports WAL bytes/fsyncs, group-commit
// batch size, checkpoint counts, and what recovery found. The
// fault-injection hooks (Options.Faults, FaultInjector) can fail, truncate,
// or tear the Nth I/O to exercise these paths deterministically.
//
// # Robustness
//
// A durable DB tracks its failure-domain state in a sticky three-state
// machine — Healthy → Degraded → Failed — exposed by Health (and the
// server's HEALTH command and INFO health section):
//
//   - Degraded (read-only): the first sticky storage error — a WAL append
//     or fsync failure, a manifest journal write failure, a checkpoint
//     fsync failure, ENOSPC, or a declared I/O stall — makes further write
//     acknowledgements promises the storage can't keep, so every mutation
//     from that point fails fast with ErrReadOnly (the server answers
//     -READONLY) while the lock-free read path keeps serving from the
//     published views. Nothing is ever acknowledged after a failed fsync:
//     in-flight waiters are woken with the error, queued write intents
//     fail before touching state, and parked producers are released.
//     Background compactions stand down. The state is sticky until the
//     process reopens the data directory — recovery is a reopen (all
//     acknowledged writes are on disk or in the WAL), not an in-place
//     retry.
//
//   - Failed: the background scrubber (Options.ScrubInterval) has proven
//     unrecoverable data loss — an NVM slab slot failed its stored CRC.
//     Slab slots hold the newest version of their objects, so there is no
//     redundant copy and a reopen cannot restore them; the state says so.
//     A rotted SST block, by contrast, only quarantines its table
//     (journaled out of the manifest, file preserved for post-mortem) and
//     reads fall through to other tiers.
//
// An I/O stall watchdog (Options.IOStallDeadline) covers the failure mode
// errors never report: a write that simply never returns. The WAL flusher
// heartbeats around every segment write, fsync, and checkpoint; when an
// I/O exceeds the deadline the watchdog declares the log stalled, fails
// all durability waiters with a typed error (ErrIOStalled), and degrades
// the DB — bounded unavailability instead of an unbounded hang.
//
// The fault-injection hooks exercise all of this deterministically:
// FaultENOSPC simulates a full disk, FaultInjector.ArmStall wedges one
// I/O for a chosen duration, and ArmScoped pins a fault to one failure
// domain (wal, journal, slab, sst). See the README's "Failure modes &
// degraded operation" matrix for the full fault → state → client-visible
// behavior table.
//
// # Serving
//
// The repo ships a network front end so the engine can serve real traffic:
// cmd/prismserver exposes a RESP2-subset TCP protocol (GET, SET, DEL, MGET,
// SCAN, PING, INFO — any Redis client or plain telnet works) over a
// RecommendedConfig database. The repo benchmark's serve-* workloads put
// pipelined YCSB-style load on the same server over loopback sockets.
//
// The server runs one goroutine per connection over the shared-nothing
// partitions and keeps the wire path as lean as the engine's read path:
// commands are parsed from a per-connection arena, reads ride the GetBuf
// zero-allocation path through a per-connection scratch buffer, and
// replies accumulate in the connection's write buffer, flushed only when
// the parser would block on the socket — a pipelined batch of K commands
// costs one read, K engine calls, and one write. INFO reports engine
// Stats, tier hit ratios, and per-op latency distributions in both
// wall-clock and simulated virtual time.
//
// Shutdown is deterministic: Close marks the database closed, after which
// every operation returns ErrClosed and open iterators fail on their next
// positioning call — the server drains connections first, then closes the
// DB, so stragglers get a clean error instead of racing teardown. See the
// README for server usage.
//
// # Observability
//
// The telemetry layer (internal/obs) is always on: every DB carries a
// lock-free metrics registry whose hot-path instruments — padded atomic
// counters and gauges, and the repository's one histogram type,
// internal/metrics.Histogram — cost a few atomic adds per operation and
// zero heap allocations (AllocsPerRun guards pin the instrumented read,
// write, and server op loops at 0 allocs/op). The engine records WAL fsync
// latency and group-commit batch size, per-partition write-batch sizes,
// compaction round duration, read-view retries, and iterator epoch pins;
// the server adds live per-op wall and virtual latency and reply flush
// sizes.
//
// Every counter and gauge is declared once, in a table of series that
// names its INFO section and key, its /metrics series, and its unit: the
// engine's table reads Stats and PersistenceStats, the server's reads its
// connection and command counters. INFO's engine, writes, persistence,
// tiers, server and ops sections and the registry's gather-time collectors
// are loops over those tables, so INFO and /metrics show the same set and
// cannot disagree.
//
// Share one registry across the stack by passing the same MetricsRegistry
// as Options.Metrics and server Config.Metrics (cmd/prismserver does this);
// nil fields create private registries, so instrumentation never turns
// off. Exposition: NewMetricsMux serves Prometheus text-format /metrics,
// the JSON event tail at /events, and net/http/pprof under /debug/pprof/ —
// `prismserver -metrics-addr :9090` mounts it.
//
// Structured events ride an EventLog (Options.Events / Config.Events): a
// bounded ring of pre-rendered JSON lines recording compaction rounds,
// checkpoints, WAL rotations, recovery outcomes, and write stalls —
// surfaced by INFO events and /events.
//
// Per-op tracing samples roughly one in Config.TraceSample commands (64 by
// default) through the op's stage pipeline — parse, dispatch, queue wait,
// apply, WAL append, fsync wait, reply flush — via PutTraced/DeleteTraced
// and an OpTrace. The slowest sampled ops are retained in a ring served by
// the server's SLOWLOG GET|LEN|RESET command (Redis-shaped entries with a
// stage breakdown) and the most recent by TRACE <n>.
package prismdb

import (
	"net/http"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/storage"
	"github.com/prismdb/prismdb/internal/tracker"
)

// Re-exported option and result types.
type (
	// Options configure a DB; see core.Options for field semantics.
	Options = core.Options
	// Stats are cumulative engine counters.
	Stats = core.Stats
	// Tier identifies the level of the storage hierarchy that served a
	// read: DRAM (page cache), NVM, flash, or a miss.
	Tier = core.Tier
	// KV is a scan result element.
	KV = core.KV
	// Iterator streams live objects in global key order with snapshot
	// consistency; see the package docs' Iterators section.
	Iterator = core.Iterator
	// CPUCosts is the engine's CPU cost model.
	CPUCosts = core.CPUCosts
	// CompactionMode selects background (async) or inline (sync)
	// compaction execution; see the package docs' Compaction section.
	CompactionMode = core.CompactionMode
	// WriteMode selects how often a write batch folds read state (async: on
	// a cadence; sync: every batch, for bit-exact serial runs); see the
	// package docs' Concurrency section.
	WriteMode = core.WriteMode
	// ReadTriggerOptions configure read-triggered compactions.
	ReadTriggerOptions = core.ReadTriggerOptions
	// Device is a simulated NVMe device.
	Device = simdev.Device
	// DeviceParams describe a simulated device.
	DeviceParams = simdev.Params
	// PageCache models the OS page cache.
	PageCache = simdev.PageCache
	// CompactionPolicy selects MSC scoring (approx, precise, random).
	CompactionPolicy = msc.Policy
	// SyncMode picks the WAL's durability-vs-latency contract; see the
	// package docs' Durability section.
	SyncMode = storage.SyncMode
	// PersistenceStats reports the durability layer's counters (WAL
	// volume, fsyncs, group-commit batch size, recovery findings).
	PersistenceStats = core.PersistenceStats
	// FaultInjector deterministically fails, short-writes, or tears the
	// Nth file I/O of a durable DB (Options.Faults) — the hook behind the
	// crash-recovery tests.
	FaultInjector = storage.FaultInjector
	// FaultMode selects what an armed FaultInjector does when it fires.
	FaultMode = storage.FaultMode
	// FaultScope pins an armed fault to one failure domain of the data
	// directory (wal, journal, slab, sst); the zero value matches any I/O.
	FaultScope = storage.FaultScope
	// Health is a point-in-time snapshot of a DB's failure-domain state;
	// see the package docs' Robustness section.
	Health = core.Health
	// HealthState is the sticky Healthy → Degraded → Failed machine's
	// position.
	HealthState = core.HealthState
	// MetricsRegistry is the lock-free metrics registry behind /metrics
	// and INFO; see the package docs' Observability section. Pass one
	// instance as Options.Metrics and the server Config's Metrics to
	// expose the whole stack on a single endpoint.
	MetricsRegistry = obs.Registry
	// EventLog is the bounded structured event log (JSON lines) shared
	// between the engine and the server via Options.Events.
	EventLog = obs.EventLog
	// OpTrace receives a traced write's engine-stage durations
	// (queue wait, apply, WAL append, fsync wait) from PutTraced and
	// DeleteTraced.
	OpTrace = core.OpTrace
)

// Tiers a read can be served from.
const (
	TierDRAM  = core.TierDRAM
	TierNVM   = core.TierNVM
	TierFlash = core.TierFlash
	TierMiss  = core.TierMiss
)

// Compaction policies (Fig 6).
const (
	ApproxMSC  = msc.Approx
	PreciseMSC = msc.Precise
	RandomSel  = msc.Random
)

// Compaction execution modes.
const (
	// CompactionAsync runs compactions on per-partition background
	// workers (the default).
	CompactionAsync = core.CompactionAsync
	// CompactionSync runs the same jobs on the triggering op, never
	// releasing the partition lock (bit-reproducible virtual time;
	// deterministic tests and serial benches).
	CompactionSync = core.CompactionSync
)

// Write-path execution modes (Options.WriteMode).
const (
	// WriteAsync (the default) folds the lock-free readers' state into the
	// partition every few write batches.
	WriteAsync = core.WriteAsync
	// WriteSync folds it on every batch, which makes a serial driver
	// bit-reproducible. Both modes share one write path.
	WriteSync = core.WriteSync
)

// WAL sync modes (Options.WALSync).
const (
	// SyncEvery acknowledges a write only after its WAL record is
	// fdatasync'd; group commit batches concurrent writers into one fsync.
	SyncEvery = storage.SyncEvery
	// SyncGroup acknowledges immediately and fsyncs in the background
	// every WALFsyncEvery records or every 2 ms.
	SyncGroup = storage.SyncGroup
	// SyncNone never fsyncs during operation (Close still does).
	SyncNone = storage.SyncNone
)

// Fault-injection modes (FaultInjector.Arm).
const (
	// FaultError fails the I/O outright.
	FaultError = storage.FaultError
	// FaultShortWrite persists half the buffer and reports ErrInjected.
	FaultShortWrite = storage.FaultShortWrite
	// FaultTornWrite persists half the buffer, reports success, and then
	// fails all subsequent I/O — a power cut mid-write.
	FaultTornWrite = storage.FaultTornWrite
	// FaultENOSPC fails the I/O with an error satisfying
	// errors.Is(err, syscall.ENOSPC) — a full disk.
	FaultENOSPC = storage.FaultENOSPC
	// FaultStall delays the I/O by the armed duration (ArmStall), then
	// lets it succeed — a wedged device, surfaced by the stall watchdog.
	FaultStall = storage.FaultStall
)

// Fault scopes (FaultInjector.ArmScoped / ArmStall).
const (
	// ScopeAny matches every I/O.
	ScopeAny = storage.ScopeAny
	// ScopeWAL matches WAL segment I/O.
	ScopeWAL = storage.ScopeWAL
	// ScopeJournal matches manifest journal and CURRENT I/O.
	ScopeJournal = storage.ScopeJournal
	// ScopeSlab matches NVM slab file I/O.
	ScopeSlab = storage.ScopeSlab
	// ScopeSST matches flash SST I/O.
	ScopeSST = storage.ScopeSST
)

// Health states (Health.State); see the package docs' Robustness section.
const (
	// StateHealthy: full service.
	StateHealthy = core.StateHealthy
	// StateDegraded: read-only after a sticky storage error.
	StateDegraded = core.StateDegraded
	// StateFailed: read-only with scrub-proven unrecoverable NVM loss.
	StateFailed = core.StateFailed
)

// ErrInjected is returned by file operations a FaultInjector failed.
var ErrInjected = storage.ErrInjected

// ErrReadOnly is returned by every mutation issued while the DB is
// degraded; see the package docs' Robustness section. The server maps it
// to a RESP -READONLY reply.
var ErrReadOnly = core.ErrReadOnly

// ErrIOStalled is the error the I/O stall watchdog fails durability
// waiters with when a WAL write exceeds Options.IOStallDeadline.
var ErrIOStalled = storage.ErrIOStalled

// ParseSyncMode parses the -wal-sync flag spellings: "sync", "group", or
// "nosync".
func ParseSyncMode(s string) (SyncMode, error) { return storage.ParseSyncMode(s) }

// ErrClosed is returned by every operation issued after Close (and by
// iterators that outlive it).
var ErrClosed = core.ErrClosed

// Device constructors with the paper's Table-1 parameters.
var (
	// NVMDevice models an Intel Optane SSD P5800X of the given capacity.
	NVMDevice = func(capacity int64) *Device { return simdev.New(simdev.NVMParams(capacity)) }
	// QLCDevice models an Intel 660p QLC drive.
	QLCDevice = func(capacity int64) *Device { return simdev.New(simdev.QLCParams(capacity)) }
	// TLCDevice models an Intel 760p TLC drive.
	TLCDevice = func(capacity int64) *Device { return simdev.New(simdev.TLCParams(capacity)) }
	// NewPageCache models an OS page cache of the given size.
	NewPageCache = simdev.NewPageCache
)

// DB is a PrismDB instance.
type DB struct {
	inner *core.DB
}

// Open creates or recovers a database. Options.NVM and Options.Flash are
// required. Reopening with devices that already hold PrismDB state recovers
// from the slabs and manifests (slab writes are synchronous and versioned,
// so in-memory "recovery" is a scan). With Options.DataDir set, Open locks
// the data directory, replays the manifest journal and the WAL tail, and
// rebuilds the same state from real files — see the package docs'
// Durability section.
func Open(opts Options) (*DB, error) {
	inner, err := core.Open(opts)
	if err != nil {
		return nil, err
	}
	return &DB{inner: inner}, nil
}

// TierSpec sizes a two-tier deployment.
type TierSpec struct {
	// TotalBytes is the database capacity across both tiers.
	TotalBytes int64
	// NVMFraction is the share of capacity on NVM (the paper evaluates
	// 0.05–0.5; het10 ≈ 0.11 matches TLC flash cost).
	NVMFraction float64
	// DatasetKeys sizes the tracker, key-index domain, and read-trigger
	// epochs. Defaults to TotalBytes / 1 KiB.
	DatasetKeys int
	// Partitions defaults to 8.
	Partitions int
	// DRAMBytes sizes the OS page cache (defaults to TotalBytes / 10,
	// the paper's 1:10 DRAM:storage ratio).
	DRAMBytes int64
}

// RecommendedConfig builds Options matching the paper's evaluation setup:
// NVM:flash split per the spec, tracker = 20% of keys, pinning threshold
// 0.7, approx-MSC with power-of-8 candidate selection, promotions plus
// read-triggered compactions enabled.
func RecommendedConfig(spec TierSpec) Options {
	if spec.TotalBytes <= 0 {
		spec.TotalBytes = 1 << 30
	}
	if spec.NVMFraction <= 0 || spec.NVMFraction >= 1 {
		spec.NVMFraction = 0.11
	}
	if spec.DatasetKeys <= 0 {
		spec.DatasetKeys = int(spec.TotalBytes / 1024)
	}
	if spec.Partitions <= 0 {
		spec.Partitions = 8
	}
	if spec.DRAMBytes <= 0 {
		spec.DRAMBytes = spec.TotalBytes / 10
	}
	nvmBytes := int64(float64(spec.TotalBytes) * spec.NVMFraction)
	flashBytes := spec.TotalBytes - nvmBytes
	nvmDev := nvmBytes * 4 // headroom: slab extents round up per partition and class
	if nvmDev < 8<<20 {
		nvmDev = 8 << 20
	}
	return Options{
		Partitions:       spec.Partitions,
		NVM:              NVMDevice(nvmDev),
		Flash:            QLCDevice(flashBytes * 4),
		Cache:            NewPageCache(spec.DRAMBytes),
		NVMBudget:        nvmBytes,
		TrackerCapacity:  spec.DatasetKeys / 5,
		PinningThreshold: 0.7,
		KeySpace:         uint64(spec.DatasetKeys) * 2,
		ReadTrigger:      core.DefaultReadTrigger(spec.DatasetKeys),
	}
}

// Put writes key=value, returning the simulated operation latency.
func (db *DB) Put(key, value []byte) (time.Duration, error) {
	return db.inner.Put(key, value)
}

// PutBatch writes a group of pairs, returning their summed simulated
// latency. The call's pairs for each partition are submitted together as
// one batch — applied on the caller when the partition is uncontended, and
// otherwise by whichever concurrent writer leads the partition's next batch —
// so a batch costs one
// critical section, one WAL group append, and one view republication per
// touched partition; the server's MSET and pipelined-SET fast path ride
// this. Pairs land in batch order per partition, and the call returns only
// after every pair is applied (and durable, per Options.WALSync).
func (db *DB) PutBatch(pairs []KV) (time.Duration, error) {
	return db.inner.PutBatch(pairs)
}

// Get returns the newest value for key, the tier that served the read, and
// the simulated latency. Missing keys return (nil, TierMiss, lat, nil).
func (db *DB) Get(key []byte) ([]byte, Tier, time.Duration, error) {
	return db.inner.Get(key)
}

// GetBuf is Get with a caller-provided value buffer: the value is appended
// to buf[:0] and the resulting slice returned (it aliases buf when buf has
// capacity). Reusing buf across calls makes NVM- and page-cache-hit reads
// allocation-free.
func (db *DB) GetBuf(key, buf []byte) ([]byte, Tier, time.Duration, error) {
	return db.inner.GetBuf(key, buf)
}

// Delete removes key.
func (db *DB) Delete(key []byte) (time.Duration, error) {
	return db.inner.Delete(key)
}

// Scan returns up to n live objects with keys ≥ start in global key order.
func (db *DB) Scan(start []byte, n int) ([]KV, time.Duration, error) {
	return db.inner.Scan(start, n)
}

// NewIterator returns a streaming iterator positioned at the first live
// key ≥ start (nil = minimum): a snapshot of the DB as of the call (see the
// Iterators section), created in O(partitions). The second parameter is
// unused — every iterator is the same snapshot however many entries the
// caller reads; pass 0. Callers must Close the iterator to release its
// snapshot pins and charge the scan's virtual time to the issuing
// partition's clock.
func (db *DB) NewIterator(start []byte, _ int) *Iterator {
	return db.inner.NewIterator(start, 0)
}

// Stats returns cumulative engine counters.
func (db *DB) Stats() Stats { return db.inner.Stats() }

// ResetStats zeroes counters (e.g. after a warm-up phase).
func (db *DB) ResetStats() { db.inner.ResetStats() }

// Elapsed returns the virtual wall-clock time consumed so far.
func (db *DB) Elapsed() time.Duration { return db.inner.Elapsed() }

// AdvanceAll aligns all partition clocks to the global maximum, draining
// background compaction workers first (call between experiment phases).
func (db *DB) AdvanceAll() { db.inner.AdvanceAll() }

// DrainCompactions blocks until every partition's background compaction
// worker is idle (no-op under CompactionSync).
func (db *DB) DrainCompactions() { db.inner.DrainCompactions() }

// ClockDistribution returns the tracker's clock-value histogram (Fig 5).
func (db *DB) ClockDistribution() [tracker.MaxClock + 1]int {
	return db.inner.ClockDistribution()
}

// NVMUsage returns current NVM consumption and the configured budget.
func (db *DB) NVMUsage() (used, budget int64) { return db.inner.NVMUsage() }

// Partitions returns the partition count.
func (db *DB) Partitions() int { return db.inner.Partitions() }

// Close marks the database closed. In-memory there is nothing to flush
// (writes are synchronous); a durable DB flushes and fsyncs its WAL,
// checkpoints the slab files, prunes the log, and releases the data
// directory's lock. Afterwards every operation fails with ErrClosed and
// open iterators fail on their next positioning call, which is what lets a
// serving front end shut down deterministically. Stats and the other
// read-only accessors keep working. Idempotent.
func (db *DB) Close() error { return db.inner.Close() }

// PersistenceStats reports the durability layer's counters; Durable is
// false (and everything zero) when Options.DataDir was not set.
func (db *DB) PersistenceStats() PersistenceStats { return db.inner.PersistenceStats() }

// Health reports the DB's failure-domain state — Healthy, Degraded
// (read-only), or Failed — with the first sticky cause and when it struck;
// see the package docs' Robustness section. Callable at any time,
// including after Close.
func (db *DB) Health() Health { return db.inner.Health() }

// Registry returns the DB's metrics registry — Options.Metrics, or the
// private one Open created when it was nil. Every engine instrument
// (fsync latency, write batching, compaction rounds, view retries) records
// here; mount it with NewMetricsMux to expose /metrics.
func (db *DB) Registry() *MetricsRegistry { return db.inner.Registry() }

// Events returns the DB's structured event log (Options.Events, or the
// private one created at Open).
func (db *DB) Events() *EventLog { return db.inner.Events() }

// PutTraced is Put with stage tracing: the write's queue-wait, apply,
// WAL-append, and fsync-wait durations are stored into tr. The server's
// sampled tracing (SLOWLOG, TRACE) rides this; tr must not be shared
// across concurrent calls.
func (db *DB) PutTraced(key, value []byte, tr *OpTrace) (time.Duration, error) {
	return db.inner.PutTraced(key, value, tr)
}

// DeleteTraced is Delete with stage tracing; see PutTraced.
func (db *DB) DeleteTraced(key []byte, tr *OpTrace) (time.Duration, error) {
	return db.inner.DeleteTraced(key, tr)
}

// NewMetricsRegistry builds an empty metrics registry to share across a DB
// and a server (Options.Metrics, server Config.Metrics).
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// NewEventLog builds a structured event log retaining the last capacity
// events (<= 0 uses the default, 256).
func NewEventLog(capacity int) *EventLog { return obs.NewEventLog(capacity) }

// NewMetricsMux returns an http.Handler serving Prometheus text-format
// metrics at /metrics, the JSON event tail at /events, and net/http/pprof
// profiles under /debug/pprof/ — what `prismserver -metrics-addr` mounts.
// events may be nil.
func NewMetricsMux(reg *MetricsRegistry, events *EventLog) *http.ServeMux {
	return obs.NewMux(reg, events)
}

// DefaultReadTrigger returns the paper's read-trigger defaults scaled to a
// dataset size.
func DefaultReadTrigger(datasetKeys int) ReadTriggerOptions {
	return core.DefaultReadTrigger(datasetKeys)
}
