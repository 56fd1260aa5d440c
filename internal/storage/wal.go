package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/obs"
)

// WAL record opcodes.
const (
	OpPut byte = 1
	OpDel byte = 2
)

// SyncMode controls when WAL appends become durable relative to the
// acknowledgement the client sees.
type SyncMode int

const (
	// SyncEvery acknowledges a write only after its record is fdatasync'd.
	// Concurrent writers that arrive while a sync is in flight are batched
	// into the next one — group commit — so the per-op cost collapses from
	// one fsync each to one fsync per batch.
	SyncEvery SyncMode = iota
	// SyncGroup acknowledges immediately and fdatasyncs in the background
	// every FsyncEvery records or FsyncInterval, whichever comes first. A
	// crash can lose up to that window of acknowledged writes.
	SyncGroup
	// SyncNone never fdatasyncs during operation (Close still flushes).
	// Records reach the OS promptly, so only an OS/power failure — not a
	// process crash — loses acknowledged writes.
	SyncNone
)

// String returns the flag spelling of the mode.
func (m SyncMode) String() string {
	switch m {
	case SyncEvery:
		return "sync"
	case SyncGroup:
		return "group"
	case SyncNone:
		return "nosync"
	}
	return fmt.Sprintf("SyncMode(%d)", int(m))
}

// ParseSyncMode parses the -wal-sync flag spellings.
func ParseSyncMode(s string) (SyncMode, error) {
	switch strings.ToLower(s) {
	case "sync", "every", "always":
		return SyncEvery, nil
	case "group", "batch":
		return SyncGroup, nil
	case "nosync", "none", "off":
		return SyncNone, nil
	}
	return 0, fmt.Errorf("storage: unknown WAL sync mode %q (want sync, group, or nosync)", s)
}

// WALOptions tunes the log. The zero value means SyncEvery with defaults.
type WALOptions struct {
	Mode SyncMode
	// FsyncEvery is the SyncGroup batch size in records (default 64).
	FsyncEvery int
	// FsyncInterval is the SyncGroup maximum delay before a pending batch
	// is forced out (default 2ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active segment once it exceeds this size
	// (default 8 MiB). Rotation triggers a checkpoint, which prunes every
	// segment the checkpoint covers.
	SegmentBytes int64

	// StallDeadline, when positive, starts an I/O stall watchdog: the
	// flusher records a heartbeat before every segment write, fdatasync,
	// and checkpoint, and a monitor goroutine poisons the log with
	// ErrIOStalled once an in-flight operation exceeds the deadline — so
	// WaitDurable callers fail fast instead of hanging on a wedged device.
	// Zero (the default) disables the watchdog.
	StallDeadline time.Duration

	// OnIOError, if non-nil, is invoked exactly once with the first sticky
	// I/O error (including a watchdog-declared stall), before any waiter is
	// woken with it or any append is refused with it. It runs on the flusher
	// or watchdog goroutine, must not block, and must not call back into the
	// WAL.
	OnIOError func(error)

	// Telemetry hooks, all optional (nil disables each — histograms and the
	// event log are nil-receiver-safe, so the flusher records
	// unconditionally).
	//
	// FsyncLatency observes the wall duration of each segment fdatasync.
	FsyncLatency *metrics.Histogram
	// BatchRecords observes the records covered by each fsync — the
	// group-commit batch size.
	BatchRecords *metrics.Histogram
	// Events receives wal_rotate and checkpoint events.
	Events *obs.EventLog
}

func (o *WALOptions) withDefaults() WALOptions {
	w := *o
	if w.FsyncEvery <= 0 {
		w.FsyncEvery = 64
	}
	if w.FsyncInterval <= 0 {
		w.FsyncInterval = 2 * time.Millisecond
	}
	if w.SegmentBytes <= 0 {
		w.SegmentBytes = 8 << 20
	}
	return w
}

// RecoveryStats describes what Replay found.
type RecoveryStats struct {
	Segments       int   // segment files replayed
	Records        int64 // records re-applied
	TruncatedBytes int64 // torn tail bytes cut from the final segment
}

// WALStats is a point-in-time view of the log's counters.
type WALStats struct {
	Bytes       int64 // record bytes appended (framing included)
	Records     int64 // records appended
	Fsyncs      int64 // fdatasync calls on segment files
	Checkpoints int64 // checkpoint + prune cycles completed
	Stalls      int64 // I/O stalls declared by the watchdog
	Segments    int   // segment files currently on disk
	Recovery    RecoveryStats
}

var errWALClosed = errors.New("storage: wal is closed")

// ErrIOStalled is the sticky error the stall watchdog latches when a
// flusher-side write, fdatasync, or checkpoint exceeds the configured
// deadline. The operation may still complete afterwards, but nothing it
// covers is acknowledged: once latched, the log is poisoned like any other
// I/O failure and the engine degrades to read-only.
var ErrIOStalled = errors.New("storage: I/O stalled")

// WAL is a write-ahead log of put/del records across append-only segment
// files, with a single flusher goroutine providing group commit: appenders
// frame records into an in-memory buffer under a short mutex and the
// flusher turns whatever accumulated into one write and (mode permitting)
// one fdatasync. In SyncEvery mode appenders then block in WaitDurable
// until the fsync covering their LSN lands — the classic group-commit
// barrier.
//
// The engine guarantees that the slab write for an operation is issued
// (reaches the OS page cache) before the operation's WAL append. A
// checkpoint therefore only has to fsync the slab backing files to make
// every record appended so far redundant, at which point all rotated
// segments are pruned.
type WAL struct {
	d    *Dir
	opts WALOptions

	mu         sync.Mutex
	buf        []byte // records framed but not yet handed to the flusher
	spare      []byte // recycled flush buffer
	bufRecs    int
	bufLastLSN uint64
	nextLSN    uint64
	ioErr      error // sticky: first write/sync failure poisons the log
	started    bool  // flusher goroutine launched
	stopped    bool
	dropOnExit bool // Kill: the final drain discards instead of flushing

	seg     *file
	segSeq  uint64
	segSize int64    // bytes written (or buffered for write) to seg
	oldSegs []uint64 // rotated segments awaiting the next checkpoint

	recoveredSegs []uint64 // segments found at open, pruned after Start
	recovery      RecoveryStats
	replayed      bool

	durable    atomic.Uint64 // highest fdatasync-covered LSN
	flushedLSN uint64        // highest LSN written to the OS (flusher only)
	durMu      sync.Mutex
	durCond    *sync.Cond

	// ioOpStart is the watchdog heartbeat: unix-nanos of the in-flight
	// flusher I/O operation (segment write, fdatasync, or checkpoint), or 0
	// when none is in flight.
	ioOpStart atomic.Int64
	stStalls  atomic.Int64

	work chan struct{}
	quit chan struct{}
	done chan struct{}

	checkpoint func() error

	stBytes       int64 // guarded by mu
	stRecords     int64
	stFsyncs      atomic.Int64
	stCheckpoints atomic.Int64
}

func segName(seq uint64) string { return fmt.Sprintf("%08d.wal", seq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasSuffix(name, ".wal") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name, ".wal"), 10, 64)
	return n, err == nil
}

// OpenWAL finds the existing segments of d's log. The caller must Replay
// (even on a fresh directory) and then Start before appending.
func OpenWAL(d *Dir, opts WALOptions) (*WAL, error) {
	w := &WAL{d: d, opts: opts.withDefaults(), nextLSN: 1}
	w.durCond = sync.NewCond(&w.durMu)
	w.work = make(chan struct{}, 1)
	w.quit = make(chan struct{})
	w.done = make(chan struct{})
	names, _, err := d.list(DirWAL)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if seq, ok := parseSegName(n); ok {
			w.recoveredSegs = append(w.recoveredSegs, seq)
		}
	}
	sort.Slice(w.recoveredSegs, func(i, j int) bool { return w.recoveredSegs[i] < w.recoveredSegs[j] })
	return w, nil
}

// Replay feeds every record in the recovered segments, oldest first, to fn.
// A torn final record (a crash mid-append) is truncated away and counted;
// a bad checksum on a complete record anywhere, or an incomplete record in
// a non-final segment, fails loudly. Replay must be called exactly once,
// before Start.
func (w *WAL) Replay(fn func(op byte, key, value []byte) error) (RecoveryStats, error) {
	if w.replayed {
		return RecoveryStats{}, errors.New("storage: wal already replayed")
	}
	w.replayed = true
	for i, seq := range w.recoveredSegs {
		name := segName(seq)
		f, size, err := w.d.openExisting(DirWAL, name)
		if err != nil {
			return w.recovery, err
		}
		data := make([]byte, size)
		if size > 0 {
			if err := f.ReadAt(data, 0); err != nil {
				f.Close()
				return w.recovery, fmt.Errorf("storage: %s: %w", name, err)
			}
		}
		last := i == len(w.recoveredSegs)-1
		end, frames, torn, err := scanFrames(name, data, last, func(payload []byte) error {
			op, key, value, err := decodeRecord(payload)
			if err != nil {
				return fmt.Errorf("storage: %s: %w", name, err)
			}
			return fn(op, key, value)
		})
		if err != nil {
			f.Close()
			return w.recovery, err
		}
		w.recovery.Records += frames
		w.recovery.Segments++
		if torn > 0 {
			w.recovery.TruncatedBytes += torn
			if err := f.Truncate(end); err == nil {
				err = f.Sync()
			}
			if err != nil {
				f.Close()
				return w.recovery, fmt.Errorf("storage: %s: truncating torn tail: %w", name, err)
			}
		}
		f.Close()
	}
	return w.recovery, nil
}

// Start opens a fresh active segment and launches the flusher. checkpoint
// (may be nil) is invoked after each rotation to make the rotated segments
// redundant; only on its success are they pruned. If recovery replayed any
// segments, Start checkpoints immediately so the replayed state is durable
// and the old segments go away.
func (w *WAL) Start(checkpoint func() error) error {
	if !w.replayed {
		return errors.New("storage: wal must be replayed before Start")
	}
	w.checkpoint = checkpoint
	seq := uint64(1)
	if n := len(w.recoveredSegs); n > 0 {
		seq = w.recoveredSegs[n-1] + 1
	}
	seg, err := w.d.create(DirWAL, segName(seq))
	if err != nil {
		return err
	}
	if err := w.d.syncDir(DirWAL); err != nil {
		return err
	}
	w.seg, w.segSeq = seg, seq
	w.oldSegs = append(w.oldSegs, w.recoveredSegs...)
	w.mu.Lock()
	w.started = true
	w.mu.Unlock()
	go w.flusher()
	if w.opts.StallDeadline > 0 {
		go w.watchdog()
	}
	if len(w.oldSegs) > 0 {
		w.checkpointAndPrune()
	}
	return nil
}

// watchdog monitors the flusher heartbeat and declares an I/O stall once an
// in-flight operation exceeds StallDeadline: it latches ErrIOStalled so
// every WaitDurable caller fails fast instead of hanging on a wedged
// device, emits an io_stall event, and exits (the log is poisoned; there is
// nothing further to watch).
func (w *WAL) watchdog() {
	period := w.opts.StallDeadline / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-w.quit:
			return
		case <-t.C:
		}
		start := w.ioOpStart.Load()
		if start == 0 {
			continue
		}
		stalled := time.Since(time.Unix(0, start))
		if stalled < w.opts.StallDeadline {
			continue
		}
		w.stStalls.Add(1)
		w.opts.Events.Emit("io_stall", "stalled_ms", stalled.Milliseconds(),
			"deadline_ms", w.opts.StallDeadline.Milliseconds())
		w.fail(fmt.Errorf("%w: wal I/O in flight for %v (deadline %v)",
			ErrIOStalled, stalled.Round(time.Millisecond), w.opts.StallDeadline))
		return
	}
}

// beginIO and endIO bracket every flusher-side I/O operation with the
// watchdog heartbeat.
func (w *WAL) beginIO() { w.ioOpStart.Store(time.Now().UnixNano()) }
func (w *WAL) endIO()   { w.ioOpStart.Store(0) }

// AppendPut frames a put record. It returns the record's LSN; the record
// is durable only once WaitDurable(lsn) returns (SyncEvery) or the next
// background fsync lands (SyncGroup).
func (w *WAL) AppendPut(key, value []byte) (uint64, error) {
	e := [1]BatchEntry{{Op: OpPut, Key: key, Value: value}}
	return w.AppendBatch(e[:])
}

// AppendDel frames a delete record.
func (w *WAL) AppendDel(key []byte) (uint64, error) {
	e := [1]BatchEntry{{Op: OpDel, Key: key}}
	return w.AppendBatch(e[:])
}

// BatchEntry is one record of an AppendBatch. Key and Value are copied
// into the WAL's frame buffer before AppendBatch returns, so the caller may
// reuse the slices immediately.
type BatchEntry struct {
	Op         byte
	Key, Value []byte
}

// AppendBatch frames a batch of records under one mutex hold and one
// flusher wakeup, returning the LSN of the first record; entry i has LSN
// first+i. The whole batch lands in a single flush, so in SyncEvery mode
// the batch shares one group-commit fsync — the engine's write batch and
// the WAL's fsync group become the same unit. An empty batch returns (0,
// nil), the "nothing was logged" LSN WaitDurable ignores.
func (w *WAL) AppendBatch(entries []BatchEntry) (uint64, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return 0, errWALClosed
	}
	if w.ioErr != nil {
		err := w.ioErr
		w.mu.Unlock()
		return 0, err
	}
	first := w.nextLSN
	before := len(w.buf)
	for _, e := range entries {
		w.buf = appendRecord(w.buf, e.Op, e.Key, e.Value)
	}
	n := int64(len(w.buf) - before)
	w.nextLSN += uint64(len(entries))
	w.bufRecs += len(entries)
	w.bufLastLSN = first + uint64(len(entries)) - 1
	w.segSize += n
	w.stBytes += n
	w.stRecords += int64(len(entries))
	w.mu.Unlock()
	select {
	case w.work <- struct{}{}:
	default:
	}
	return first, nil
}

// appendRecord frames one record into buf without intermediate allocation.
func appendRecord(buf []byte, op byte, key, value []byte) []byte {
	var kl [binary.MaxVarintLen64]byte
	kn := binary.PutUvarint(kl[:], uint64(len(key)))
	plen := 1 + kn + len(key) + len(value)
	var hdr [frameHeaderLen]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(plen))
	buf = append(buf, hdr[:]...)
	start := len(buf)
	buf = append(buf, op)
	buf = append(buf, kl[:kn]...)
	buf = append(buf, key...)
	buf = append(buf, value...)
	crc := crc32.Checksum(buf[start:], crcTable)
	binary.LittleEndian.PutUint32(buf[start-4:start], crc)
	return buf
}

func decodeRecord(payload []byte) (op byte, key, value []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, nil, errors.New("empty record")
	}
	op = payload[0]
	if op != OpPut && op != OpDel {
		return 0, nil, nil, fmt.Errorf("unknown record op %d", op)
	}
	klen, n := binary.Uvarint(payload[1:])
	if n <= 0 || uint64(len(payload)-1-n) < klen {
		return 0, nil, nil, errors.New("record key length out of range")
	}
	key = payload[1+n : 1+n+int(klen)]
	value = payload[1+n+int(klen):]
	return op, key, value, nil
}

// WaitDurable blocks until the record at lsn is covered by an fdatasync.
// In SyncGroup and SyncNone modes it only reports a pending sticky error:
// acknowledgement does not wait for durability there. Nil receivers and
// zero LSNs (no record was logged) return immediately, so callers can be
// oblivious to whether a WAL is attached at all. A record appended before
// Close is durable once Close's final drain has run, so a caller that
// arrives while Close is draining waits for the drain rather than failing.
func (w *WAL) WaitDurable(lsn uint64) error {
	if w == nil || lsn == 0 {
		return nil
	}
	if w.opts.Mode != SyncEvery {
		w.mu.Lock()
		err := w.ioErr
		w.mu.Unlock()
		return err
	}
	if w.durable.Load() >= lsn {
		return nil
	}
	w.durMu.Lock()
	defer w.durMu.Unlock()
	for w.durable.Load() < lsn {
		w.mu.Lock()
		err, stopped, started := w.ioErr, w.stopped, w.started
		w.mu.Unlock()
		if err != nil {
			return err
		}
		if stopped {
			if !started {
				return errWALClosed
			}
			select {
			case <-w.done:
				// The flusher has exited: what its final drain (none after
				// Kill) did not make durable never will be.
				if w.durable.Load() >= lsn {
					return nil
				}
				return errWALClosed
			default:
				// Close or Kill wakes waiters once the flusher has exited.
			}
		}
		w.durCond.Wait()
	}
	return nil
}

// flusher is the single goroutine that moves buffered records to the OS
// and schedules fdatasyncs.
func (w *WAL) flusher() {
	defer close(w.done)
	var tickC <-chan time.Time
	if w.opts.Mode == SyncGroup {
		t := time.NewTicker(w.opts.FsyncInterval)
		defer t.Stop()
		tickC = t.C
	}
	var groupPending int // records written but not yet fsynced (SyncGroup)
	for {
		force := false
		select {
		case <-w.quit:
			// Final drain: flush whatever is buffered and always fsync —
			// Close's contract — unless Kill asked for a crash.
			w.mu.Lock()
			drop := w.dropOnExit
			w.mu.Unlock()
			if !drop {
				w.flushOnce(true, &groupPending)
			}
			return
		case <-w.work:
		case <-tickC:
			force = true
		}
		w.flushOnce(force, &groupPending)
		w.maybeRotate(&groupPending)
	}
}

// flushOnce writes the buffered records and applies the mode's fsync
// policy. force requests an fsync even below the group batch threshold.
func (w *WAL) flushOnce(force bool, groupPending *int) {
	w.mu.Lock()
	if w.ioErr != nil {
		w.mu.Unlock()
		// Broadcast under durMu (wakeWaiters), not bare: a waiter that has
		// checked its condition but not yet parked must not miss the wake.
		w.wakeWaiters()
		return
	}
	buf, recs, last := w.buf, w.bufRecs, w.bufLastLSN
	w.buf = w.spare[:0]
	w.spare = nil
	w.bufRecs = 0
	seg := w.seg
	off := w.segSize - int64(len(buf)) // segSize includes the buffered bytes
	w.mu.Unlock()

	if len(buf) > 0 {
		w.beginIO()
		err := seg.WriteAt(buf, off)
		w.endIO()
		if err != nil {
			w.fail(err)
			return
		}
		w.flushedLSN = last
	}
	w.mu.Lock()
	w.spare = buf[:0]
	w.mu.Unlock()

	switch w.opts.Mode {
	case SyncEvery:
		if recs > 0 || force {
			if w.fsyncSeg(seg, recs) {
				w.advanceDurable(w.flushedLSN)
			}
		}
	case SyncGroup:
		*groupPending += recs
		if *groupPending >= w.opts.FsyncEvery || (force && *groupPending > 0) {
			if w.fsyncSeg(seg, *groupPending) {
				w.advanceDurable(w.flushedLSN)
				*groupPending = 0
			}
		}
	case SyncNone:
		if force { // only the final drain forces in nosync mode
			if w.fsyncSeg(seg, recs) {
				w.advanceDurable(w.flushedLSN)
			}
		} else {
			w.advanceDurable(w.flushedLSN)
		}
	}
}

// fsyncSeg fdatasyncs seg and records a group-commit batch of n records.
func (w *WAL) fsyncSeg(seg *file, n int) bool {
	t0 := time.Now()
	w.beginIO()
	err := seg.Sync()
	w.endIO()
	if err != nil {
		w.fail(err)
		return false
	}
	w.opts.FsyncLatency.Record(time.Since(t0))
	w.stFsyncs.Add(1)
	if n > 0 {
		w.opts.BatchRecords.Observe(int64(n))
	}
	return true
}

func (w *WAL) advanceDurable(lsn uint64) {
	if lsn == 0 || w.durable.Load() >= lsn {
		return
	}
	// Never advance a poisoned log: if the watchdog latched ErrIOStalled
	// while an fsync was wedged, the waiters it covers were already failed —
	// an eventual "success" of that fsync must not retroactively
	// acknowledge anything. (The narrow race where the latch lands after
	// this check is benign: the I/O did complete, so the records ARE
	// durable and acknowledging them is correct.)
	w.mu.Lock()
	poisoned := w.ioErr != nil
	w.mu.Unlock()
	if poisoned {
		w.wakeWaiters()
		return
	}
	w.durable.Store(lsn)
	w.wakeWaiters()
}

// wakeWaiters broadcasts to WaitDurable callers. Taking durMu around the
// broadcast closes the window where a waiter has checked its condition but
// not yet parked: it either sees the new state or is inside Wait.
func (w *WAL) wakeWaiters() {
	w.durMu.Lock()
	w.durCond.Broadcast()
	w.durMu.Unlock()
}

// fail latches the first I/O error and wakes every waiter, running the
// OnIOError hook first: the engine is read-only before any caller can see
// the error, so a write issued the moment the failed one returns gets the
// engine's refusal, not the log's sticky error. Holding durMu throughout
// keeps a WaitDurable caller that has not parked yet from reading the error
// early, and serializes the flusher's and the stall watchdog's calls (fail
// is the only writer of ioErr).
func (w *WAL) fail(err error) {
	w.durMu.Lock()
	defer w.durMu.Unlock()
	if w.Err() == nil {
		if w.opts.OnIOError != nil {
			w.opts.OnIOError(err)
		}
		w.mu.Lock()
		w.ioErr = err
		w.mu.Unlock()
	}
	w.durCond.Broadcast()
}

// maybeRotate swaps in a fresh segment once the active one is full, then
// checkpoints and prunes.
func (w *WAL) maybeRotate(groupPending *int) {
	w.mu.Lock()
	if w.segSize < w.opts.SegmentBytes || w.bufRecs > 0 || w.ioErr != nil {
		// Rotate only between flushes so a flush buffer never spans two
		// segments.
		w.mu.Unlock()
		return
	}
	prevSeq, prev := w.segSeq, w.seg
	seg, err := w.d.create(DirWAL, segName(prevSeq+1))
	if err != nil {
		w.mu.Unlock()
		w.fail(err)
		return
	}
	w.seg = seg
	w.segSeq = prevSeq + 1
	w.segSize = 0
	w.oldSegs = append(w.oldSegs, prevSeq)
	w.mu.Unlock()
	// The outgoing segment must be made durable before the flusher abandons
	// it: in group/nosync modes it can still hold written-but-unsynced
	// records, and every later fsync covers only the new active file — so
	// without this sync those LSNs would be reported durable while still
	// volatile, and a power cut could leave a torn tail in a NON-final
	// segment, which recovery treats as hard corruption rather than a
	// truncatable crash artifact. (In SyncEvery mode everything written is
	// already synced and this fdatasync is a cheap no-op.)
	if !w.fsyncSeg(prev, *groupPending) {
		prev.Close()
		return
	}
	w.advanceDurable(w.flushedLSN)
	*groupPending = 0
	if err := w.d.syncDir(DirWAL); err != nil {
		prev.Close()
		w.fail(err)
		return
	}
	prev.Close()
	w.opts.Events.Emit("wal_rotate", "segment", prevSeq, "next", prevSeq+1)
	w.checkpointAndPrune()
}

// checkpointAndPrune makes everything in the rotated segments redundant
// (by fsyncing the slab backing files via the checkpoint callback) and
// then deletes them. On checkpoint failure the segments are retained and
// the next rotation retries.
func (w *WAL) checkpointAndPrune() {
	if w.checkpoint == nil {
		return
	}
	t0 := time.Now()
	w.beginIO()
	err := w.checkpoint()
	w.endIO()
	if err != nil {
		w.opts.Events.Emit("checkpoint", "ok", false, "err", err)
		return
	}
	w.mu.Lock()
	segs := w.oldSegs
	w.oldSegs = nil
	w.mu.Unlock()
	for _, seq := range segs {
		w.d.remove(DirWAL, segName(seq))
	}
	if len(segs) > 0 {
		w.d.syncDir(DirWAL)
	}
	w.stCheckpoints.Add(1)
	w.opts.Events.Emit("checkpoint", "ok", true, "pruned_segments", len(segs), "took_ms", time.Since(t0))
}

// Close flushes buffered records, fdatasyncs the active segment (in every
// mode — a clean shutdown leaves nothing volatile), and stops the flusher.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.stopped || !w.started {
		w.stopped = true
		started := w.started
		w.mu.Unlock()
		if started {
			<-w.done
		}
		return nil
	}
	w.stopped = true
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	w.wakeWaiters()
	w.mu.Lock()
	err := w.ioErr
	w.mu.Unlock()
	return err
}

// Prune removes every segment file on disk. Valid only after Close has
// returned cleanly and the caller has checkpointed (fsynced the slab
// files), which makes every record redundant: a clean shutdown leaves an
// empty WAL directory, so the next open replays nothing. Prune refuses to
// run in any other state — in particular after a failed or partial replay,
// when the segments still hold the only copy of un-applied records — so a
// confused caller cannot turn a recoverable log into silent data loss.
func (w *WAL) Prune() error {
	w.mu.Lock()
	clean := w.replayed && w.started && w.stopped && !w.dropOnExit && w.ioErr == nil
	w.mu.Unlock()
	if !clean {
		return errors.New("storage: prune refused: wal was not replayed, started, and cleanly closed")
	}
	names, _, err := w.d.list(DirWAL)
	if err != nil {
		return err
	}
	removed := false
	for _, n := range names {
		if _, ok := parseSegName(n); !ok {
			continue
		}
		if err := w.d.remove(DirWAL, n); err != nil {
			return err
		}
		removed = true
	}
	if removed {
		return w.d.syncDir(DirWAL)
	}
	return nil
}

// Kill stops the flusher without flushing or syncing — the in-process
// stand-in for kill -9. Buffered (unacknowledged) records are dropped;
// records already written sit in the OS page cache exactly as they would
// after a real crash.
func (w *WAL) Kill() {
	w.mu.Lock()
	if w.stopped || !w.started {
		w.stopped = true
		started := w.started
		w.mu.Unlock()
		if started {
			<-w.done
		}
		return
	}
	w.stopped = true
	w.dropOnExit = true
	w.buf = nil
	w.bufRecs = 0
	w.mu.Unlock()
	close(w.quit)
	<-w.done
	w.wakeWaiters()
}

// Err reports the sticky I/O error, if any.
func (w *WAL) Err() error {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ioErr
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() WALStats {
	if w == nil {
		return WALStats{}
	}
	w.mu.Lock()
	s := WALStats{
		Bytes:    w.stBytes,
		Records:  w.stRecords,
		Segments: len(w.oldSegs),
		Recovery: w.recovery,
	}
	if w.seg != nil {
		s.Segments++
	}
	w.mu.Unlock()
	s.Fsyncs = w.stFsyncs.Load()
	s.Checkpoints = w.stCheckpoints.Load()
	s.Stalls = w.stStalls.Load()
	return s
}
