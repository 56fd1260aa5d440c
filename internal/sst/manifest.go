package sst

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"github.com/prismdb/prismdb/internal/simdev"
)

// Manifest tracks the live SST files of one partition's flash log, in the
// style of RocksDB's live-file tracking (§6): an on-device manifest file
// records the current file set for recovery, and reference counts guarantee
// a compaction never deletes an SST still in use by a concurrent Get or
// Scan iterator.
//
// The live file set is published as an immutable copy-on-write Snapshot
// behind an atomic pointer. Readers acquire the current snapshot with two
// atomic operations and no allocation; only Apply (rare: one call per
// compaction commit) takes the mutex and builds a new snapshot. Reference
// counting is per-snapshot rather than per-table-per-read: a snapshot holds
// one reference on each of its tables for its whole lifetime, so the
// foreground read path never touches table refcounts at all.
type Manifest struct {
	dev   *simdev.Device
	cache *simdev.PageCache
	name  string

	// In journaled (durable) mode, edits go to an external journal keyed
	// by partition instead of rewriting a per-partition manifest file in
	// place: the journal's framed appends make each compaction commit
	// crash-atomic, which the rewrite never was.
	journal Journal
	part    int

	// mu serializes Apply/persist and table refcount transitions. The
	// foreground read path never takes it.
	mu  sync.Mutex
	cur atomic.Pointer[Snapshot]
}

// Journal records SST add/remove edits durably. Implemented by the storage
// layer's manifest journal; defined here so sst does not depend on it.
type Journal interface {
	LogEdit(part int, add, remove []string) error
}

// Snapshot is an immutable view of a manifest's live tables, sorted by
// smallest key with disjoint ranges. Aggregate sizes are precomputed so the
// engine's per-op accounting (NVM usage, object counts) is O(1) and
// lock-free. Callers must Release every snapshot they Acquire.
type Snapshot struct {
	m      *Manifest
	tables []*Table

	totalBytes int64
	totalCount int
	metaBytes  int64

	// refs counts the manifest's own reference (until the snapshot is
	// superseded by Apply) plus one per outstanding Acquire. freed latches
	// the drop-to-zero transition so a racing Acquire that resurrects and
	// re-releases a dying snapshot cannot double-unref its tables.
	refs  atomic.Int64
	freed atomic.Bool
}

// newSnapshot builds a snapshot over tables (already sorted), taking one
// table reference each. Caller holds m.mu.
func (m *Manifest) newSnapshot(tables []*Table) *Snapshot {
	s := &Snapshot{m: m, tables: tables}
	for _, t := range tables {
		t.refs++
		s.totalBytes += t.size
		s.totalCount += t.count
		s.metaBytes += t.MetaBytes()
	}
	s.refs.Store(1) // the manifest's reference
	return s
}

// NewManifest creates an empty manifest backed by the named device file.
func NewManifest(dev *simdev.Device, cache *simdev.PageCache, name string) (*Manifest, error) {
	m := &Manifest{dev: dev, cache: cache, name: name}
	if _, err := dev.CreateFile(name); err != nil {
		return nil, err
	}
	m.cur.Store(m.newSnapshot(nil))
	if err := m.persist(nil); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadManifest reopens a manifest and all live tables it references,
// charging recovery I/O to clk.
func LoadManifest(dev *simdev.Device, cache *simdev.PageCache, name string, clk *simdev.Clock) (*Manifest, error) {
	f, err := dev.OpenFile(name)
	if err != nil {
		return nil, err
	}
	data := make([]byte, f.Size())
	if err := f.ReadAt(data, 0); err != nil {
		return nil, err
	}
	if clk != nil && len(data) > 0 {
		dev.AccessClk(clk, simdev.OpRead, int64(len(data)))
	}
	if len(data) < 4 {
		return nil, fmt.Errorf("sst: manifest %s truncated", name)
	}
	n := int(binary.LittleEndian.Uint32(data))
	data = data[4:]
	m := &Manifest{dev: dev, cache: cache, name: name}
	var tables []*Table
	for i := 0; i < n; i++ {
		if len(data) < 2 {
			return nil, fmt.Errorf("sst: manifest %s truncated entry", name)
		}
		nl := int(binary.LittleEndian.Uint16(data))
		data = data[2:]
		if len(data) < nl {
			return nil, fmt.Errorf("sst: manifest %s truncated name", name)
		}
		fname := string(data[:nl])
		data = data[nl:]
		t, err := Open(dev, cache, fname, clk)
		if err != nil {
			return nil, fmt.Errorf("sst: manifest %s references %s: %v", name, fname, err)
		}
		tables = append(tables, t)
	}
	sortTables(tables)
	m.cur.Store(m.newSnapshot(tables))
	return m, nil
}

// NewManifestJournaled builds a manifest whose edits are recorded in j
// under the partition's id, seeded with tables (already opened from the
// journal's live set during recovery; may be nil). No device-side manifest
// file exists in this mode and nothing is written at construction — the
// journal already describes exactly this state.
func NewManifestJournaled(dev *simdev.Device, cache *simdev.PageCache, j Journal, part int, tables []*Table) *Manifest {
	m := &Manifest{dev: dev, cache: cache, journal: j, part: part}
	sortTables(tables)
	m.cur.Store(m.newSnapshot(tables))
	return m
}

func sortTables(tables []*Table) {
	sort.Slice(tables, func(i, j int) bool {
		return bytes.Compare(tables[i].smallest, tables[j].smallest) < 0
	})
}

// persist rewrites the manifest file. Caller holds m.mu (or is initialising).
func (m *Manifest) persist(tables []*Table) error {
	var buf []byte
	var cnt [4]byte
	binary.LittleEndian.PutUint32(cnt[:], uint32(len(tables)))
	buf = append(buf, cnt[:]...)
	for _, t := range tables {
		var nl [2]byte
		binary.LittleEndian.PutUint16(nl[:], uint16(len(t.Name())))
		buf = append(buf, nl[:]...)
		buf = append(buf, t.Name()...)
	}
	// Rewrite in place: remove and recreate (the simulation's files don't
	// support truncating writes).
	m.dev.RemoveFile(m.name)
	f, err := m.dev.CreateFile(m.name)
	if err != nil {
		return err
	}
	_, err = f.Append(buf)
	return err
}

// Apply atomically installs added tables and removes old ones, persisting
// the new file set and publishing a fresh snapshot. Removed tables keep
// their files on the device until the last snapshot referencing them is
// released. Added tables must already be finished.
func (m *Manifest) Apply(add, remove []*Table) error {
	m.mu.Lock()
	old := m.cur.Load()
	rm := make(map[*Table]bool, len(remove))
	for _, t := range remove {
		rm[t] = true
	}
	tables := make([]*Table, 0, len(old.tables)-len(remove)+len(add))
	for _, t := range old.tables {
		if rm[t] {
			continue
		}
		tables = append(tables, t)
	}
	tables = append(tables, add...)
	sortTables(tables)
	next := m.newSnapshot(tables)
	if err := m.commitLocked(add, remove, tables); err != nil {
		// Roll back the new snapshot's table references.
		for _, t := range tables {
			m.unrefLocked(t)
		}
		m.mu.Unlock()
		return err
	}
	m.cur.Store(next)
	m.mu.Unlock()
	old.Release() // drop the manifest's reference on the superseded snapshot
	return nil
}

// commitLocked makes an Apply durable. In journaled mode the added tables'
// file contents are fsynced first — an SST must be fully on disk before
// the journal edit that makes it live — and then the edit is one framed,
// fsynced append. In simulation mode the per-partition manifest file is
// rewritten as before. Caller holds m.mu.
func (m *Manifest) commitLocked(add, remove, tables []*Table) error {
	if m.journal == nil {
		return m.persist(tables)
	}
	addN := make([]string, len(add))
	for i, t := range add {
		if err := t.file.Sync(); err != nil {
			return err
		}
		addN[i] = t.Name()
	}
	rmN := make([]string, len(remove))
	for i, t := range remove {
		rmN[i] = t.Name()
	}
	return m.journal.LogEdit(m.part, addN, rmN)
}

// Acquire returns the current snapshot with a reference taken. It is
// lock-free and allocation-free; callers must Release the snapshot.
func (m *Manifest) Acquire() *Snapshot {
	for {
		s := m.cur.Load()
		s.refs.Add(1)
		// Validate after incrementing: if the snapshot is still current,
		// the manifest's own reference was included in the count we
		// incremented from, so the snapshot is alive and ours. Otherwise
		// it may already be draining — undo and retry on the new one.
		if m.cur.Load() == s {
			return s
		}
		s.Release()
	}
}

// Release drops one reference. When the last reference goes, every table
// the snapshot pinned is unreferenced, deleting tables that are no longer
// in any snapshot.
func (s *Snapshot) Release() {
	if s.refs.Add(-1) > 0 {
		return
	}
	// A concurrent Acquire may briefly resurrect the count and release it
	// again; only the first drop-to-zero frees the tables.
	if !s.freed.CompareAndSwap(false, true) {
		return
	}
	s.m.mu.Lock()
	for _, t := range s.tables {
		s.m.unrefLocked(t)
	}
	s.m.mu.Unlock()
}

// Tables returns the snapshot's live tables, sorted by smallest key.
// Callers must not modify the returned slice.
func (s *Snapshot) Tables() []*Table { return s.tables }

// Len returns the number of live tables in the snapshot.
func (s *Snapshot) Len() int { return len(s.tables) }

// Find returns the table whose key range may contain key, or nil. Ranges
// are disjoint and sorted by smallest key, so at most one table qualifies
// and a binary search locates it.
func (s *Snapshot) Find(key []byte) *Table {
	i := sort.Search(len(s.tables), func(i int) bool {
		return bytes.Compare(s.tables[i].smallest, key) > 0
	})
	if i == 0 {
		return nil
	}
	t := s.tables[i-1]
	if bytes.Compare(t.largest, key) < 0 {
		return nil
	}
	return t
}

// SearchFrom returns the index of the first table whose largest key is ≥
// start (all tables for nil start): the scan cursor's starting table.
func (s *Snapshot) SearchFrom(start []byte) int {
	if start == nil {
		return 0
	}
	return sort.Search(len(s.tables), func(i int) bool {
		return bytes.Compare(s.tables[i].largest, start) >= 0
	})
}

// Quarantine removes t from the live set — the scrubber's response to a
// failed block CRC. The edit is journaled like a compaction commit, so the
// corrupt table stays gone across restarts; unlike a normal removal the
// file itself is left on the device for post-mortem inspection (the next
// recovery's orphan sweep clears it, since the journal no longer references
// it). Reads of keys the table covered fall through to whatever other tiers
// hold: an NVM copy still serves, a flash-only key reports not-found rather
// than returning rotted bytes.
func (m *Manifest) Quarantine(t *Table) error {
	m.mu.Lock()
	t.quarantined = true
	m.mu.Unlock()
	return m.Apply(nil, []*Table{t})
}

func (m *Manifest) unrefLocked(t *Table) {
	t.refs--
	if t.refs <= 0 {
		if !t.quarantined {
			m.dev.RemoveFile(t.Name())
		}
		if m.cache != nil {
			m.cache.InvalidateFile(t.Name(), t.size)
		}
	}
}

// Tables returns the number of live tables.
func (m *Manifest) Tables() int { return len(m.cur.Load().tables) }

// TotalBytes returns the summed size of live tables.
func (m *Manifest) TotalBytes() int64 { return m.cur.Load().totalBytes }

// TotalCount returns the summed record count of live tables.
func (m *Manifest) TotalCount() int { return m.cur.Load().totalCount }

// MetaBytes returns the summed NVM footprint of all tables' indices and
// filters.
func (m *Manifest) MetaBytes() int64 { return m.cur.Load().metaBytes }

// refsOf reports a table's current reference count (testing hook).
func (m *Manifest) refsOf(t *Table) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return t.refs
}

// snapshotRefs reports a snapshot's current reference count (testing hook).
func (s *Snapshot) snapshotRefs() int64 { return s.refs.Load() }
