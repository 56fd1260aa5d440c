package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/workload"
)

// tracedShare is the traced run's op count as a share of the end-to-end
// run's: every pass of the traced run (untraced reference, traced, engine
// replay, null-engine replay) executes a fifth of it.
const tracedShare = 5

// nullEngine is a server.Engine that stores nothing: GETs return a canned
// value of the workload's size, writes are acknowledged at once. Serving
// the workload's request stream from it isolates the wire path.
type nullEngine struct{ val []byte }

func (nullEngine) Put(key, value []byte) (time.Duration, error)    { return 0, nil }
func (nullEngine) PutBatch(pairs []core.KV) (time.Duration, error) { return 0, nil }
func (nullEngine) Delete(key []byte) (time.Duration, error)        { return 0, nil }
func (nullEngine) NewIterator(start []byte, limitHint int) *core.Iterator {
	return nil // SCAN is not part of any workload
}
func (nullEngine) Stats() core.Stats      { return core.Stats{} }
func (nullEngine) Elapsed() time.Duration { return 0 }
func (e nullEngine) GetBuf(key, buf []byte) ([]byte, core.Tier, time.Duration, error) {
	return append(buf[:0], e.val...), core.TierNVM, 0, nil
}

// replayTimes accumulates the in-process replay's per-op wall times.
type replayTimes struct {
	getNs, gets [4]int64 // by prismdb.Tier
	putNs, puts int64

	traced                     int64
	queue, apply, append, sync time.Duration
}

func (a *replayTimes) add(b *replayTimes) {
	for t := range a.getNs {
		a.getNs[t] += b.getNs[t]
		a.gets[t] += b.gets[t]
	}
	a.putNs, a.puts = a.putNs+b.putNs, a.puts+b.puts
	a.traced += b.traced
	a.queue, a.apply = a.queue+b.queue, a.apply+b.apply
	a.append, a.sync = a.append+b.append, a.sync+b.sync
}

// fill reports the replay's mean per-op times.
func (a *replayTimes) fill(m map[string]float64) {
	fast := prismdb.TierNVM
	m["core.get_nvm_ns"] = ratio(float64(a.getNs[fast]+a.getNs[prismdb.TierDRAM]), float64(a.gets[fast]+a.gets[prismdb.TierDRAM]))
	m["core.get_flash_ns"] = ratio(float64(a.getNs[prismdb.TierFlash]), float64(a.gets[prismdb.TierFlash]))
	m["core.get_miss_ns"] = ratio(float64(a.getNs[prismdb.TierMiss]), float64(a.gets[prismdb.TierMiss]))
	m["core.put_ns"] = ratio(float64(a.putNs), float64(a.puts))
	m["core.put_queue_wait_ns"] = ratio(float64(a.queue), float64(a.traced))
	m["core.put_apply_ns"] = ratio(float64(a.apply), float64(a.traced))
	m["core.put_wal_append_ns"] = ratio(float64(a.append), float64(a.traced))
	m["core.put_fsync_wait_ns"] = ratio(float64(a.sync), float64(a.traced))
}

// serveNull serves batches pipelined batches per connection from a second
// server whose engine is the no-op one, through fresh clients that record
// null.* spans, and returns the pass's wall time.
func (st *stack) serveNull(batches int, t0 time.Time) (time.Duration, error) {
	canned := appendValue(nil, 0, preloadWriter, 0)
	if err := st.startServer(nullEngine{val: canned}, prismdb.NewMetricsRegistry()); err != nil {
		return 0, err
	}
	if err := st.connect(); err != nil {
		return 0, err
	}
	for _, c := range st.clients {
		c.lenient = true
		c.names = [3]string{"null.batch", "null.encode", "null.rtt"}
		c.log = newSpanLog(t0, 3*batches)
	}
	wall, err := runClients(st.clients, batches)
	if err != nil {
		return 0, err
	}
	return wall, st.stopServing()
}

// runEngine replays the client's request stream straight into the engine,
// one goroutine per connection as when served, verifying every result the
// same way. Like the server, it hands a run of consecutive SETs to the
// engine as one PutBatch when a GET (or the end of the pipelined batch)
// forces it out. Every sixteenth SET goes through PutTraced on its own and
// contributes its stages as child spans laid end to end. Each batch of
// pipeDepth ops is one engine.batch span.
func (c *client) runEngine(db *prismdb.DB, batches int, rt *replayTimes) error {
	var pairs []prismdb.KV
	var arena, got []byte
	flush := func() error {
		if len(pairs) == 0 {
			return nil
		}
		start := time.Now()
		_, err := db.PutBatch(pairs)
		rt.putNs += int64(time.Since(start))
		rt.puts += int64(len(pairs))
		pairs, arena = pairs[:0], arena[:0]
		return err
	}
	for b := 0; b < batches; b++ {
		t0 := c.log.now()
		first := len(c.log.spans)
		for i := 0; i < pipeDepth; i++ {
			o := c.stream.next()
			c.attempted++
			// Growing the arena mid-run is fine: earlier pairs keep the old
			// backing array alive.
			off := len(arena)
			arena = appendKey(arena, o.idx)
			key := arena[off:len(arena):len(arena)]
			if o.set {
				c.sent[o.idx]++
				off = len(arena)
				arena = appendValue(arena, o.idx, c.id, c.sent[o.idx])
				val := arena[off:len(arena):len(arena)]
				if (rt.puts+int64(len(pairs)))%16 != 0 {
					pairs = append(pairs, prismdb.KV{Key: key, Value: val})
					continue
				}
				if err := flush(); err != nil {
					return fmt.Errorf("conn %d: replay put: %w", c.id, err)
				}
				var tr prismdb.OpTrace
				start := time.Now()
				_, err := db.PutTraced(key, val, &tr)
				rt.putNs += int64(time.Since(start))
				rt.puts++
				if err != nil {
					return fmt.Errorf("conn %d: replay put: %w", c.id, err)
				}
				rt.traced++
				rt.queue, rt.apply = rt.queue+tr.QueueWait, rt.apply+tr.Apply
				rt.append, rt.sync = rt.append+tr.WALAppend, rt.sync+tr.FsyncWait
				at := c.log.now() - int64(tr.QueueWait+tr.Apply+tr.WALAppend+tr.FsyncWait)
				for _, st := range []struct {
					name string
					d    time.Duration
				}{{"engine.put.queue_wait", tr.QueueWait}, {"engine.put.apply", tr.Apply},
					{"engine.put.wal_append", tr.WALAppend}, {"engine.put.fsync_wait", tr.FsyncWait}} {
					c.log.add(st.name, at, at+int64(st.d), -1, int32(b))
					at += int64(st.d)
				}
				continue
			}
			if err := flush(); err != nil {
				return fmt.Errorf("conn %d: replay put: %w", c.id, err)
			}
			minSeq := uint32(0)
			if c.sent != nil {
				minSeq = c.sent[o.idx]
			}
			start := time.Now()
			v, tier, _, err := db.GetBuf(key, got[:0])
			rt.getNs[tier] += int64(time.Since(start))
			rt.gets[tier]++
			if err != nil {
				return fmt.Errorf("conn %d: replay get: %w", c.id, err)
			}
			got = v
			if tier == prismdb.TierMiss {
				v = nil
			}
			c.check(pending{idx: o.idx, minSeq: minSeq}, '$', v)
			arena = arena[:off]
		}
		if err := flush(); err != nil {
			return fmt.Errorf("conn %d: replay put: %w", c.id, err)
		}
		parent := c.log.add("engine.batch", t0, c.log.now(), -1, int32(b))
		for i := first; i < int(parent); i++ {
			c.log.spans[i].parent = parent
		}
	}
	return nil
}

// sampleBacklog polls the compaction backlog gauge until stop closes and
// returns the largest value it saw.
func sampleBacklog(db *prismdb.DB, stop <-chan struct{}) int64 {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	var max int64
	for {
		select {
		case <-stop:
			return max
		case <-tick.C:
			if b := db.Stats().CompactionBacklog; b > max {
				max = b
			}
		}
	}
}

// runTraced is the --trace 1 run: the probe pass plus the traced run, and
// the per-layer metrics they yield.
func runTraced(s spec, seed int64, seconds int) (result, error) {
	m := make(map[string]float64, len(perLayer))
	ops := s.measuredOps(seconds) / tracedShare
	ops -= ops % (numConns * pipeDepth)
	var attempted, failed int64
	var spans []span
	var err error
	if s.paper {
		attempted, failed, spans, err = tracePaper(m, s, seed, ops)
	} else {
		attempted, failed, spans, err = traceServed(m, s, seed, ops)
	}
	if err != nil {
		return result{}, err
	}
	if err := runProbes(m, s, seed); err != nil {
		return result{}, err
	}
	if err := writeTrace(filepath.Join(outDir(), "trace-"+s.name+".json"), s.name, seed, spans); err != nil {
		return result{}, err
	}
	return makeResult(perLayer, m, attempted, failed), nil
}

func traceServed(m map[string]float64, s spec, seed int64, ops int) (attempted, failed int64, spans []span, err error) {
	st, err := setupServed(s, seed)
	if err != nil {
		return 0, 0, nil, err
	}
	defer st.close()
	batches := ops / (numConns * pipeDepth)

	// Untraced reference pass: the counter-derived metrics come from here.
	runtime.GC()
	ref, err := st.timed(ops)
	if err != nil {
		return 0, 0, nil, err
	}
	ref.counterLayers(m, st.opts)

	// Traced pass: the clients record spans around their own calls.
	t0 := time.Now()
	for _, c := range st.clients {
		c.log = newSpanLog(t0, 4*batches)
	}
	stop, backlog := make(chan struct{}), make(chan int64, 1)
	go func() { backlog <- sampleBacklog(st.db, stop) }()
	traced, err := st.timed(ops)
	close(stop)
	m["compaction.backlog_max"] = float64(<-backlog)
	if err != nil {
		return 0, 0, nil, err
	}
	m["trace.overhead_ratio"] = ratio(float64(ref.wall), float64(traced.wall))

	// Replay (a): the same streams, in process, straight into the engine.
	if err := st.stopServing(); err != nil {
		return 0, 0, nil, err
	}
	times := make([]replayTimes, len(st.clients))
	if _, err := runAll(st.clients, func(c *client) error {
		return c.runEngine(st.db, batches, &times[c.id])
	}); err != nil {
		return 0, 0, nil, err
	}
	var rt replayTimes
	for i := range times {
		rt.add(&times[i])
	}
	rt.fill(m)
	attempted, failed = st.counts()
	logs := make([]*spanLog, 0, 2*len(st.clients))
	for _, c := range st.clients {
		logs = append(logs, c.log)
	}

	// Replay (b): the same streams from their start, served by a server
	// with the no-op engine. Fresh clients, so that the sequence numbers
	// the durable check relies on stay those of the real engine.
	real := st.clients
	st.clients = nil
	wall, err := st.serveNull(batches, t0)
	for _, c := range st.clients {
		logs = append(logs, c.log)
	}
	a, f := st.counts()
	attempted, failed = attempted+a, failed+f
	st.clients = real
	if err != nil {
		return 0, 0, nil, err
	}
	m["server.null_engine_ops_per_s"] = float64(ops) / wall.Seconds()

	spans = mergeLogs(logs...)
	sum := summarize(spans)
	m["client.encode_ns"] = meanNs(sum, "client.encode") / pipeDepth
	rtt := durations(spans, "client.rtt")
	m["client.batch_rtt_p50_us"] = percentile(rtt, 0.50) / 1e3
	m["client.batch_rtt_p99_us"] = percentile(rtt, 0.99) / 1e3
	m["client.batch_rtt_p999_us"] = percentile(rtt, 0.999) / 1e3
	// The server's own time per op: a served batch's round trip less the
	// time the same batch takes inside the engine.
	m["server.self_us_per_op"] = (meanNs(sum, "client.rtt") - meanNs(sum, "engine.batch")) / pipeDepth / 1e3

	if s.durable {
		rec, err := st.reopenAndVerify()
		if err != nil {
			return 0, 0, nil, err
		}
		attempted, failed = attempted+rec.checked, failed+rec.failed
		m["storage.recovery_ms"] = float64(rec.reopen) / 1e6
	}
	return attempted, failed, spans, nil
}

// durations collects the durations of the spans called name, sorted.
func durations(spans []span, name string) []float64 {
	var d []float64
	for _, s := range spans {
		if s.name == name {
			d = append(d, float64(s.end-s.start))
		}
	}
	sort.Float64s(d)
	return d
}

// percentile is the q-th quantile of sorted values (nearest rank).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(float64(len(sorted))*q+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tracePaper runs the paper workload twice with one seed: the passes must
// agree on every virtual-time output to the last digit, and the second
// pass's host speed over the first's stands in for the tracing overhead
// (nothing is traced inside bench.Run, so it measures run-to-run noise).
func tracePaper(m map[string]float64, s spec, seed int64, ops int) (attempted, failed int64, spans []span, err error) {
	log := newSpanLog(time.Now(), 8)
	var passes [2]paperPass
	var before, after snapshot
	for i := range passes {
		runtime.GC()
		start := log.now()
		if i == 0 {
			before = procSnapshot()
		}
		if passes[i], err = runPaper(s, seed, ops); err != nil {
			return 0, 0, nil, err
		}
		if i == 0 {
			after = procSnapshot()
		}
		end := log.now()
		parent := log.add("paper.pass", start, end, -1, int32(i))
		log.add("paper.setup", start, start+int64(passes[i].setup), parent, int32(i))
		log.add("paper.measure", end-int64(passes[i].res.HostElapsed), end, parent, int32(i))
		a, f := passes[i].counts()
		attempted, failed = attempted+a, failed+f
	}
	if got, want := passes[1].virtualFingerprint(), passes[0].virtualFingerprint(); got != want {
		fmt.Printf("second pass differs from the first with the same seed:\n  %s\n  %s\n", got, want)
		failed++
	}
	r := passes[0].res
	nops := float64(ops)
	engineLayers(m, *r.Prism, *r.Prism, nops, r.Elapsed, 8, r.FlashWritten)
	deviceLayers(m,
		simdev.Stats{WriteBytes: r.NVMWritten, BusyTime: r.NVMBusy, QueueTime: r.NVMQueue},
		simdev.Stats{ReadBytes: r.FlashRead, WriteBytes: r.FlashWritten, BusyTime: r.FlashBusy, QueueTime: r.FlashQueue},
		simdev.NVMParams(1).Channels, simdev.QLCParams(1).Channels, nops, r.Elapsed)
	reads, updates := unpack(r.ReadHist), unpack(r.UpdateHist)
	m["core.virt_get_p50_us"] = reads.quantile(0.50) / 1e3
	m["core.virt_get_p99_us"] = reads.quantile(0.99) / 1e3
	m["core.virt_set_p99_us"] = updates.quantile(0.99) / 1e3
	// bench.Run gives no hook between its phases, so the process counters
	// cover the whole first pass: load, warm-up and measured ops.
	procLayers(m, before, after, float64(s.keys+s.warmupOps+ops))
	m["trace.overhead_ratio"] = ratio(passes[1].res.HostKops, passes[0].res.HostKops)
	return attempted, failed, log.spans, nil
}

// paperNextNs times the paper workload's own generator, which bench.Run
// draws from, instead of the served workloads' stream.
func paperNextNs(s spec, seed int64) (float64, error) {
	wl, err := workload.YCSB('a', s.keys, valueSize, s.theta, seed)
	if err != nil {
		return 0, err
	}
	gen := workload.NewGenerator(wl)
	return medianOf(func() (float64, error) {
		return perCall(probeDraws, func(int) { sink += uint64(len(gen.Next().Key)) }), nil
	})
}
