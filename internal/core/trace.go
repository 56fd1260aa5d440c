package core

import "time"

// OpTrace receives the engine-side stage timings of one traced write. The
// server's sampled tracer passes one in through PutTraced/DeleteTraced;
// untraced ops pass nil and pay no time.Now calls beyond what the write
// path already makes.
//
// Every op is applied by the same function (applyLocked), so the stages mean
// the same thing wherever its batch ran: Apply is the op's own mutation
// inside the batch's critical section, WALAppend the batch's one group append
// (billed in full — group commit makes the whole append this op's durability
// prerequisite; zero for an in-memory DB), FsyncWait the off-lock durability
// barrier. Only QueueWait depends on the path: it spans the op joining its
// partition's write queue to a batch leader (itself or another writer)
// starting its mutation, and is zero for a batch that found the lock free
// and nothing queued.
type OpTrace struct {
	QueueWait time.Duration // wait for a batch leader to start the op (queued path only)
	Apply     time.Duration // mutation inside the critical section
	WALAppend time.Duration // the batch's WAL group append
	FsyncWait time.Duration // off-lock group-commit durability barrier

	// enqAt anchors the queued path's QueueWait measurement (zero on the
	// uncontended path). It lives here rather than in writeIntent so the
	// untraced hot path's intent stays small — every pool entry would
	// otherwise carry a dead 24-byte timestamp.
	enqAt time.Time
}

// PutTraced is Put for sampled ops: identical semantics, with engine stage
// timings written into tr (which must be non-nil and zeroed).
func (db *DB) PutTraced(key, value []byte, tr *OpTrace) (time.Duration, error) {
	return db.writeOne(intentPut, key, value, tr, false)
}

// DeleteTraced is Delete for sampled ops, mirroring PutTraced.
func (db *DB) DeleteTraced(key []byte, tr *OpTrace) (time.Duration, error) {
	return db.writeOne(intentDel, key, nil, tr, false)
}
