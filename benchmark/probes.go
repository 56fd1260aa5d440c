package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"time"

	"github.com/prismdb/prismdb/internal/bloom"
	"github.com/prismdb/prismdb/internal/btree"
	"github.com/prismdb/prismdb/internal/buckets"
	"github.com/prismdb/prismdb/internal/mapper"
	"github.com/prismdb/prismdb/internal/msc"
	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
	"github.com/prismdb/prismdb/internal/sst"
	"github.com/prismdb/prismdb/internal/storage"
	"github.com/prismdb/prismdb/internal/tracker"
	"github.com/prismdb/prismdb/workload"
)

// The probe pass builds each leaf layer standalone, at the size one of the
// engine's eight partitions has under the workload, and times its public
// calls on the workload's key stream: single-threaded, the median of
// probeRepeats repeats. It says what a layer costs alone; the traced run
// says what it costs inside a served op.
const (
	probeRepeats = 5
	probeDraws   = 1 << 14 // key draws timed per repeat
	probeParts   = 8       // RecommendedConfig's partition count
)

// probeEnv is what every probe shares: the workload's size and key stream.
type probeEnv struct {
	spec spec
	n    int      // objects per partition
	keys [][]byte // the partition's keys, in key order
	draw []int    // indices into keys, drawn with the workload's skew
	val  []byte
}

func newProbeEnv(s spec, seed int64) *probeEnv {
	n := s.keys / probeParts &^ 1 // even: the SST probe pairs each key with a missing neighbour
	e := &probeEnv{spec: s, n: n, val: appendValue(nil, 0, preloadWriter, 0)}
	for i := 0; i < n; i++ {
		e.keys = append(e.keys, appendKey(nil, i))
	}
	zipf := workload.NewZipfian(n, s.theta, true)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < probeDraws; i++ {
		e.draw = append(e.draw, zipf.Next(rng))
	}
	return e
}

// medianOf runs fn probeRepeats times and returns the median of its
// results.
func medianOf(fn func() (float64, error)) (float64, error) {
	var v []float64
	for i := 0; i < probeRepeats; i++ {
		x, err := fn()
		if err != nil {
			return 0, err
		}
		v = append(v, x)
	}
	return median(v), nil
}

// perCall times n calls of fn and returns nanoseconds per call.
func perCall(n int, fn func(i int)) float64 {
	start := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	return float64(time.Since(start)) / float64(n)
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink uint64

// runProbes fills the per-layer metrics that come from standalone probes.
func runProbes(m map[string]float64, s spec, seed int64) error {
	e := newProbeEnv(s, seed)
	for _, p := range []func(map[string]float64) error{
		e.probeWorkload, e.probeReadReply, e.probeBtree, e.probeSlab, e.probeSST,
		e.probeBloom, e.probePolicy, e.probeSimdev, e.probeStorage,
	} {
		if err := p(m); err != nil {
			return fmt.Errorf("probe: %w", err)
		}
	}
	return nil
}

func (e *probeEnv) probeWorkload(m map[string]float64) error {
	if e.spec.paper {
		var err error
		m["workload.next_ns"], err = paperNextNs(e.spec, 1)
		return err
	}
	zipf := workload.NewZipfian(e.spec.keys, e.spec.theta, true)
	st := newOpStream(e.spec, zipf, 1, 0)
	v, err := medianOf(func() (float64, error) {
		return perCall(probeDraws, func(int) { sink += uint64(st.next().idx) }), nil
	})
	m["workload.next_ns"] = v
	return err
}

// probeReadReply times the repo's client-side reply parser on the replies
// a GET-only batch produces.
func (e *probeEnv) probeReadReply(m map[string]float64) error {
	var wire []byte
	for i := 0; i < pipeDepth*64; i++ {
		wire = append(wire, fmt.Sprintf("$%d\r\n", len(e.val))...)
		wire = append(wire, e.val...)
		wire = append(wire, '\r', '\n')
	}
	v, err := medianOf(func() (float64, error) {
		br := bufio.NewReaderSize(bytes.NewReader(wire), 64<<10)
		var rerr error
		ns := perCall(pipeDepth*64, func(int) {
			rep, err := server.ReadReply(br)
			if err != nil {
				rerr = err
			}
			sink += uint64(len(rep.Str))
		})
		return ns, rerr
	})
	m["server.read_reply_ns"] = v
	return err
}

func (e *probeEnv) probeBtree(m map[string]float64) error {
	var tree *btree.Tree
	var err error
	if m["btree.insert_ns"], err = medianOf(func() (float64, error) {
		tree = btree.New()
		return perCall(e.n, func(i int) { tree.Insert(e.keys[i], uint64(i)) }), nil
	}); err != nil {
		return err
	}
	m["btree.get_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			v, _ := tree.Get(e.keys[e.draw[i]])
			sink += v
		}), nil
	})
	m["btree.ascend_ns_per_item"], _ = medianOf(func() (float64, error) {
		start := time.Now()
		tree.AscendFrom(nil, func(it btree.Item) bool { sink++; return true })
		return float64(time.Since(start)) / float64(e.n), nil
	})
	// Delete a quarter of the keys and put them back outside the timer.
	quarter := e.n / 4
	m["btree.delete_ns"], _ = medianOf(func() (float64, error) {
		ns := perCall(quarter, func(i int) { tree.Delete(e.keys[i*4]) })
		for i := 0; i < quarter; i++ {
			tree.Insert(e.keys[i*4], uint64(i*4))
		}
		return ns, nil
	})
	return nil
}

func (e *probeEnv) probeSlab(m map[string]float64) error {
	capacity := int64(e.n) * 4 * valueSize
	var mgr *slab.Manager
	var locs []slab.Loc
	clk := simdev.NewClock()
	var err error
	if m["slab.put_ns"], err = medianOf(func() (float64, error) {
		dev := simdev.New(simdev.NVMParams(capacity))
		var merr error
		if mgr, merr = slab.NewManager(dev, simdev.NewPageCache(capacity/8), "probe-slab", nil); merr != nil {
			return 0, merr
		}
		locs = locs[:0]
		ns := perCall(e.n, func(i int) {
			loc, err := mgr.Put(clk, slab.Record{Key: e.keys[i], Value: e.val, Version: 1})
			if err != nil {
				merr = err
			}
			locs = append(locs, loc)
		})
		return ns, merr
	}); err != nil {
		return err
	}
	buf := make([]byte, 0, 2*valueSize)
	if m["slab.read_ns"], err = medianOf(func() (float64, error) {
		var rerr error
		ns := perCall(len(e.draw), func(i int) {
			rec, b, err := mgr.ReadSlotInto(clk, locs[e.draw[i]], buf)
			if err != nil {
				rerr = err
			}
			buf = b[:0]
			sink += uint64(len(rec.Value))
		})
		return ns, rerr
	}); err != nil {
		return err
	}
	if m["slab.update_ns"], err = medianOf(func() (float64, error) {
		var uerr error
		ns := perCall(len(e.draw), func(i int) {
			k := e.draw[i]
			if err := mgr.Update(clk, locs[k], slab.Record{Key: e.keys[k], Value: e.val, Version: 2}); err != nil {
				uerr = err
			}
		})
		return ns, uerr
	}); err != nil {
		return err
	}
	m["slab.space_amp"] = ratio(float64(mgr.AllocatedBytes()), float64(e.n*(keyLen+valueSize)))
	return nil
}

// probeSST builds the partition's data as 2048-record tables holding every
// second key, so that the odd keys probe the bloom-filtered miss path.
func (e *probeEnv) probeSST(m map[string]float64) error {
	const perTable = 2048
	capacity := int64(e.n) * 4 * valueSize
	clk := simdev.NewClock()
	var dev *simdev.Device
	var cache *simdev.PageCache
	var tables []*sst.Table
	recs := e.n / 2
	var err error
	if m["sst.build_ns_per_rec"], err = medianOf(func() (float64, error) {
		dev = simdev.New(simdev.QLCParams(capacity))
		cache = simdev.NewPageCache(capacity / 8)
		tables = tables[:0]
		start := time.Now()
		for lo := 0; lo < recs; lo += perTable {
			w := sst.NewWriter(dev, cache, fmt.Sprintf("probe-%06d.sst", lo), sst.DefaultBlockSize)
			for i := lo; i < lo+perTable && i < recs; i++ {
				if err := w.Add(sst.Record{Key: e.keys[2*i], Value: e.val, Version: 1}); err != nil {
					return 0, err
				}
			}
			t, err := w.Finish(clk)
			if err != nil {
				return 0, err
			}
			tables = append(tables, t)
		}
		return float64(time.Since(start)) / float64(recs), nil
	}); err != nil {
		return err
	}
	var stored int64
	for _, t := range tables {
		stored += t.Size()
	}
	m["sst.space_amp"] = ratio(float64(stored), float64(recs*(keyLen+valueSize)))

	man, err := sst.NewManifest(dev, cache, "probe-MANIFEST")
	if err != nil {
		return err
	}
	if err := man.Apply(tables, nil); err != nil {
		return err
	}
	// One manifest commit per call: install a one-record table sorting
	// after the data, then retire it (which also deletes its file).
	if m["sst.manifest_apply_us"], err = medianOf(func() (float64, error) {
		var extra []*sst.Table
		for i := 0; i < 16; i++ {
			w := sst.NewWriter(dev, cache, dev.NextFileName("probe-extra"), sst.DefaultBlockSize)
			if err := w.Add(sst.Record{Key: []byte(fmt.Sprintf("zzzz%012d", i)), Value: e.val, Version: 1}); err != nil {
				return 0, err
			}
			t, err := w.Finish(clk)
			if err != nil {
				return 0, err
			}
			extra = append(extra, t)
		}
		var aerr error
		ns := perCall(2*len(extra), func(i int) {
			t := extra[i/2 : i/2+1]
			add, remove := t, []*sst.Table(nil)
			if i%2 == 1 {
				add, remove = nil, t
			}
			if err := man.Apply(add, remove); err != nil {
				aerr = err
			}
		})
		return ns / 1e3, aerr
	}); err != nil {
		return err
	}

	lookup := func(odd int) func() (float64, error) {
		return func() (float64, error) {
			var gerr error
			snap := man.Acquire()
			ns := perCall(len(e.draw), func(i int) {
				key := e.keys[e.draw[i]&^1|odd]
				t := snap.Find(key)
				if t == nil {
					return
				}
				rec, ok, err := t.Get(clk, key)
				if err != nil || ok != (odd == 0) {
					gerr = fmt.Errorf("sst get %q: found=%v err=%v", key, ok, err)
				}
				sink += uint64(len(rec.Value))
			})
			snap.Release()
			return ns, gerr
		}
	}
	if m["sst.get_hit_ns"], err = medianOf(lookup(0)); err != nil {
		return err
	}
	if m["sst.get_miss_ns"], err = medianOf(lookup(1)); err != nil {
		return err
	}
	m["sst.manifest_find_ns"], _ = medianOf(func() (float64, error) {
		snap := man.Acquire()
		ns := perCall(len(e.draw), func(i int) {
			if snap.Find(e.keys[e.draw[i]]) != nil {
				sink++
			}
		})
		snap.Release()
		return ns, nil
	})
	m["sst.iter_next_ns"], err = medianOf(func() (float64, error) {
		start, n := time.Now(), 0
		for _, t := range tables {
			it := t.Iter(clk, nil, false)
			for ; it.Valid(); it.Next() {
				n++
			}
			if err := it.Err(); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start)) / float64(n), nil
	})
	return err
}

func (e *probeEnv) probeBloom(m map[string]float64) error {
	var f *bloom.Filter
	m["bloom.add_ns"], _ = medianOf(func() (float64, error) {
		f = bloom.New(e.n, 0.01)
		return perCall(e.n, func(i int) { f.Add(e.keys[i]) }), nil
	})
	m["bloom.may_contain_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			if f.MayContain(e.keys[e.draw[i]]) {
				sink++
			}
		}), nil
	})
	return nil
}

// probePolicy times the popularity and placement policy: tracker touch,
// bucket estimate, pin decision, and MSC score.
func (e *probeEnv) probePolicy(m map[string]float64) error {
	trk := tracker.New(e.n / 5)
	m["tracker.touch_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			k := e.draw[i]
			if _, evicted := trk.Touch(e.keys[k], uint64(k), tracker.NVM); evicted {
				sink++
			}
		}), nil
	})
	const bucketKeys = 4096 // the engine's default: keys per 4 MiB SST of 1 KiB objects
	space := uint64(e.spec.keys) * 2
	bkt := buckets.New(space, bucketKeys)
	for i := 0; i < e.spec.keys; i += probeParts {
		bkt.OnPut(uint64(i))
	}
	m["buckets.estimate_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			lo := uint64(e.draw[i]) * probeParts
			sink += uint64(bkt.Estimate(lo, lo+2*bucketKeys).Tn)
		}), nil
	})
	rng := rand.New(rand.NewSource(1))
	dec := mapper.New(0.7).NewDecider(trk.Distribution())
	m["mapper.should_pin_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			if dec.ShouldPin(i&tracker.MaxClock, i&4 == 0, rng) {
				sink++
			}
		}), nil
	})
	m["msc.score_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			f := float64(i&1023 + 1)
			sink += uint64(msc.Score(msc.RangeStats{Tn: f, Tf: 4 * f, P: 0.3, O: 0.5, Benefit: f / 2}))
		}), nil
	})
	return nil
}

func (e *probeEnv) probeSimdev(m map[string]float64) error {
	dev := simdev.New(simdev.QLCParams(1 << 30))
	var now int64
	m["simdev.access_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) { now = dev.Access(now, simdev.OpRead, 4096) }), nil
	})
	cache := simdev.NewPageCache(int64(e.n) * valueSize / 8)
	m["simdev.pagecache_touch_ns"], _ = medianOf(func() (float64, error) {
		return perCall(len(e.draw), func(i int) {
			sink += uint64(cache.Touch("probe", int64(e.draw[i])*valueSize, valueSize))
		}), nil
	})
	return nil
}

// probeStorage times the real-file layer in a scratch directory: WAL
// appends under the workload's group-commit policy, and fsynced manifest
// journal edits.
func (e *probeEnv) probeStorage(m map[string]float64) error {
	dir, err := os.MkdirTemp(scratchDir(), "prism-bench-probe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	d, err := storage.OpenDir(dir, nil)
	if err != nil {
		return err
	}
	defer d.Close()
	wal, err := storage.OpenWAL(d, storage.WALOptions{Mode: storage.SyncGroup})
	if err != nil {
		return err
	}
	if _, err := wal.Replay(func(byte, []byte, []byte) error { return nil }); err != nil {
		return err
	}
	if err := wal.Start(nil); err != nil {
		return err
	}
	if m["storage.wal_append_ns"], err = medianOf(func() (float64, error) {
		var aerr error
		ns := perCall(len(e.draw)/4, func(i int) {
			if _, err := wal.AppendPut(e.keys[e.draw[i]], e.val); err != nil {
				aerr = err
			}
		})
		return ns, aerr
	}); err != nil {
		return err
	}
	batch := make([]storage.BatchEntry, pipeDepth)
	if m["storage.wal_batch_ns_per_rec"], err = medianOf(func() (float64, error) {
		var aerr error
		ns := perCall(len(e.draw)/4/pipeDepth, func(i int) {
			for j := range batch {
				batch[j] = storage.BatchEntry{Op: storage.OpPut, Key: e.keys[e.draw[i*pipeDepth+j]], Value: e.val}
			}
			if _, err := wal.AppendBatch(batch); err != nil {
				aerr = err
			}
		})
		return ns / pipeDepth, aerr
	}); err != nil {
		return err
	}
	if err := wal.Close(); err != nil {
		return err
	}
	journal, err := storage.OpenJournal(d)
	if err != nil {
		return err
	}
	m["storage.journal_logedit_us"], err = medianOf(func() (float64, error) {
		var lerr error
		ns := perCall(64, func(i int) {
			name := fmt.Sprintf("probe-%06d.sst", i)
			if err := journal.LogEdit(0, []string{name}, nil); err != nil {
				lerr = err
			}
			if err := journal.LogEdit(0, nil, []string{name}); err != nil {
				lerr = err
			}
		})
		return ns / 2 / 1e3, lerr
	})
	return err
}
