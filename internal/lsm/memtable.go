package lsm

import (
	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/sst"
)

// memtable is the write buffer: the engine's B-tree maps each key to the
// index of its latest record in recs. A write of a buffered key replaces
// its record in place, keeping the memtable latest-only (the WAL holds
// history; levels hold older versions). A Tombstone record shadows older
// versions in lower levels.
type memtable struct {
	idx   btree.Tree
	recs  []sst.Record
	bytes int64 // approximate memory footprint
}

// put inserts r, or replaces the record buffered under its key.
func (m *memtable) put(r sst.Record) {
	if i, ok := m.idx.Get(r.Key); ok {
		m.bytes += int64(len(r.Value) - len(m.recs[i].Value))
		m.recs[i] = r
		return
	}
	m.idx.Insert(r.Key, uint64(len(m.recs)))
	m.recs = append(m.recs, r)
	m.bytes += int64(len(r.Key) + len(r.Value) + 24)
}

// get returns the record buffered under key.
func (m *memtable) get(key []byte) (sst.Record, bool) {
	i, ok := m.idx.Get(key)
	if !ok {
		return sst.Record{}, false
	}
	return m.recs[i], true
}

// ascend calls fn for every record with key ≥ start (nil: from the
// smallest), in key order, until fn returns false.
func (m *memtable) ascend(start []byte, fn func(sst.Record) bool) {
	m.idx.AscendFrom(start, func(it btree.Item) bool { return fn(m.recs[it.Val]) })
}
