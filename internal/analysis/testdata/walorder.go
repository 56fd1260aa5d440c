// Golden corpus for the walorder analyzer: slab effects must precede the
// WAL append that describes them within one function.
package golden

type wal struct{}

func (w *wal) AppendPut(k, v []byte) uint64 { return 0 }
func (w *wal) AppendDel(k []byte) uint64    { return 0 }

type slabMgrT struct{}

func (s *slabMgrT) Put(k, v []byte) int  { return 0 }
func (s *slabMgrT) Delete(k []byte)      {}
func (s *slabMgrT) RecycleSlots(l []int) {}

type wpart struct {
	wal   *wal
	slabs *slabMgrT
}

func okOrder(p *wpart, key, value []byte) {
	loc := p.slabs.Put(key, value)
	p.wal.AppendPut(key, value)
	_ = loc
}

func badOrder(p *wpart, key, value []byte) {
	p.wal.AppendPut(key, value)
	p.slabs.Put(key, value) // want:walorder after the WAL append
}

// An append in either branch poisons the statements after the merge.
func badBranchOrder(p *wpart, key []byte, cond bool) {
	if cond {
		p.wal.AppendDel(key)
	}
	p.slabs.Delete(key) // want:walorder after the WAL append
}

// An append on a terminating arm does not reach the fallthrough path.
func okTerminatingArm(p *wpart, key, value []byte, cond bool) {
	if cond {
		p.wal.AppendPut(key, value)
		return
	}
	p.slabs.Put(key, value)
	p.wal.AppendPut(key, value)
}

// A goroutine body is its own critical-section story.
func okSeparateGoroutine(p *wpart, key, value []byte) {
	p.wal.AppendPut(key, value)
	go func() {
		p.slabs.RecycleSlots(nil)
	}()
}

// The engine's shape: records are queued per mutation and appended as one
// group by a flush helper. Queueing counts as the append...
type pending struct{ recs [][]byte }

func (w *wal) AppendBatch(recs [][]byte) uint64 { return 0 }

func (p *wpart) logOp(b *pending, key []byte) { b.recs = append(b.recs, key) }

func (p *wpart) flushHelper(b *pending) {
	p.wal.AppendBatch(b.recs)
	b.recs = b.recs[:0]
}

func okQueuedOrder(p *wpart, b *pending, key, value []byte) {
	p.slabs.Put(key, value)
	p.logOp(b, key)
	p.flushHelper(b)
}

func badQueuedOrder(p *wpart, b *pending, key, value []byte) {
	p.logOp(b, key)
	p.slabs.Put(key, value) // want:walorder after the WAL append
}

// ...and so does calling the helper that appends, mid-function: the later
// slab effect's record cannot be in the group already written.
func badHelperOrder(p *wpart, b *pending, key, value []byte) {
	p.slabs.Put(key, value)
	p.flushHelper(b)
	p.slabs.Delete(key) // want:walorder after the WAL append
}
