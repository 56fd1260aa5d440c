package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"syscall"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/workload"
)

// Series the harness reads out of the shared metrics registry.
const (
	histGetVirt  = `prism_server_op_virtual_latency_seconds{op="get"}`
	histSetVirt  = `prism_server_op_virtual_latency_seconds{op="set"}`
	histGetWall  = `prism_server_op_wall_latency_seconds{op="get"}`
	histSetWall  = `prism_server_op_wall_latency_seconds{op="set"}`
	histFlush    = "prism_server_reply_flush_bytes"
	histFsync    = "prism_wal_fsync_seconds"
	histWALBatch = "prism_wal_group_commit_records"
)

// stack is one served deployment hosted in the benchmark process: the
// engine with its devices, the RESP server on a loopback port, and the
// connected clients. The harness keeps every handle so that counters are
// read through public APIs rather than scraped.
type stack struct {
	spec  spec
	seed  int64
	opts  prismdb.Options
	db    *prismdb.DB
	srv   *server.Server
	addr  string
	serve chan error

	clients []*client
	dataDir string
}

// scratchDir is where the durable workload keeps its data directory: inside
// the checkout when launched through run.sh.
func scratchDir() string {
	if d := os.Getenv("PRISM_BENCH_SCRATCH"); d != "" {
		return d
	}
	return os.TempDir()
}

// openEngine opens opts with a fresh metrics registry. Serving uses the
// engine's default async write and compaction modes. Loading uses the sync
// modes: under async compaction which objects a merge demotes depends on
// how far the loader got while the merge ran, and the NVM read ratio of a
// whole run then differs by several percent between two runs of identical
// code; under the sync modes the placement after the load is a pure
// function of the configuration.
func openEngine(opts prismdb.Options, serving bool) (prismdb.Options, *prismdb.DB, error) {
	opts.Metrics = prismdb.NewMetricsRegistry()
	opts.CompactionMode, opts.WriteMode = prismdb.CompactionSync, prismdb.WriteSync
	if serving {
		opts.CompactionMode, opts.WriteMode = prismdb.CompactionAsync, prismdb.WriteAsync
	}
	db, err := prismdb.Open(opts)
	if err != nil {
		return opts, nil, fmt.Errorf("open engine: %w", err)
	}
	return opts, db, nil
}

// setupServed is everything before the timed phase: open, preload, reopen
// for serving, start the server, connect, run the fixed-count warm-up, and
// let background work settle. Its wall time is the workload's setup_s.
func setupServed(s spec, seed int64) (*stack, error) {
	st := &stack{spec: s, seed: seed}
	if err := st.setup(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (st *stack) setup() error {
	if st.spec.durable {
		dir, err := os.MkdirTemp(scratchDir(), "prism-bench-data-")
		if err != nil {
			return fmt.Errorf("data dir: %w", err)
		}
		st.dataDir = dir
	}
	if err := st.preload(); err != nil {
		return err
	}
	if err := st.startServer(st.db, st.opts.Metrics); err != nil {
		return err
	}
	if err := st.connect(); err != nil {
		return err
	}
	if _, err := runClients(st.clients, st.spec.warmupOps/(numConns*pipeDepth)); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	if err := st.failures(); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	st.db.AdvanceAll()
	return nil
}

// preload writes every key once and leaves st.db open for serving.
func (st *stack) preload() error {
	s := st.spec
	opts, db, err := openEngine(s.engineOptions(st.dataDir), false)
	if err != nil {
		return err
	}
	val := make([]byte, 0, valueSize)
	key := make([]byte, 0, keyLen)
	for i := 0; i < s.keys; i++ {
		key = appendKey(key[:0], i)
		val = appendValue(val[:0], i, preloadWriter, 0)
		if _, err := db.Put(key, val); err != nil {
			db.Close()
			return fmt.Errorf("preload key %d: %w", i, err)
		}
	}
	if err := db.Close(); err != nil {
		return fmt.Errorf("preload: close: %w", err)
	}
	// In memory the simulated devices hold the data, so the same devices
	// are reopened; on disk the files do, and fresh devices adopt them.
	if s.durable {
		opts = s.engineOptions(st.dataDir)
	}
	st.opts, st.db, err = openEngine(opts, true)
	return err
}

// startServer serves eng on a fresh loopback port, recording into reg (the
// engine's registry, so that one Gather reads the whole stack).
func (st *stack) startServer(eng server.Engine, reg *prismdb.MetricsRegistry) error {
	srv, err := server.New(server.Config{Engine: eng, Metrics: reg})
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("listen: %w", err)
	}
	st.srv, st.addr = srv, ln.Addr().String()
	st.serve = make(chan error, 1)
	go func() { st.serve <- srv.Serve(ln) }()
	return nil
}

func (st *stack) connect() error {
	zipf := workload.NewZipfian(st.spec.keys, st.spec.theta, true)
	for c := 0; c < numConns; c++ {
		cl, err := dialClient(st.addr, c, st.spec, zipf, st.seed)
		if err != nil {
			return err
		}
		st.clients = append(st.clients, cl)
	}
	return nil
}

// failures reports the first verification failure any client has seen.
func (st *stack) failures() error {
	for _, c := range st.clients {
		if c.failed > 0 {
			return fmt.Errorf("conn %d: %d failed ops, first: %s", c.id, c.failed, c.firstFailure)
		}
	}
	return nil
}

func (st *stack) counts() (attempted, failed int64) {
	for _, c := range st.clients {
		attempted += c.attempted
		failed += c.failed
	}
	return attempted, failed
}

// stopServing disconnects the clients and shuts the server down, leaving
// the engine open and the clients' bookkeeping in place.
func (st *stack) stopServing() error {
	for _, c := range st.clients {
		c.nc.Close()
	}
	if st.srv == nil {
		return nil
	}
	err := st.srv.Shutdown(5 * time.Second)
	if serr := <-st.serve; err == nil {
		err = serr
	}
	st.srv = nil
	return err
}

// close tears the whole deployment down and removes the data directory.
func (st *stack) close() error {
	err := st.stopServing()
	if st.db != nil {
		err = errors.Join(err, st.db.Close())
		st.db = nil
	}
	if st.dataDir != "" {
		err = errors.Join(err, os.RemoveAll(st.dataDir))
	}
	return err
}

// snapshot is every counter the harness reads, taken at a phase boundary.
type snapshot struct {
	virt     time.Duration
	stats    prismdb.Stats
	pers     prismdb.PersistenceStats
	nvm      simdev.Stats
	flash    simdev.Stats
	cacheHit int64
	cacheMis int64
	series   *obs.Gathered
	mem      runtime.MemStats
	ru       syscall.Rusage
}

// snapshot reads every counter; virt is the virtual clock the caller read
// at the phase boundary proper.
func (st *stack) snapshot(virt time.Duration) snapshot {
	sn := procSnapshot()
	sn.virt = virt
	sn.stats = st.db.Stats()
	sn.pers = st.db.PersistenceStats()
	sn.nvm, sn.flash = st.opts.NVM.Stats(), st.opts.Flash.Stats()
	sn.cacheHit, sn.cacheMis = st.opts.Cache.Stats()
	sn.series = st.opts.Metrics.Gather()
	return sn
}

// procSnapshot reads the process-wide counters alone.
func procSnapshot() snapshot {
	var sn snapshot
	runtime.ReadMemStats(&sn.mem)
	// Getrusage cannot fail for RUSAGE_SELF with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &sn.ru)
	return sn
}

// phase is one timed pass and the counter snapshots around it.
type phase struct {
	ops           int
	wall          time.Duration
	before, after snapshot
}

// timed runs ops requests through the clients between two snapshots. The
// closing snapshot's virtual clock is read as the last reply lands; its
// counters after the merges the phase triggered have finished, so bytes
// moved are counted whole.
func (st *stack) timed(ops int) (phase, error) {
	ph := phase{ops: ops, before: st.snapshot(st.db.Elapsed())}
	wall, err := runClients(st.clients, ops/(numConns*pipeDepth))
	if err != nil {
		return ph, err
	}
	virt := st.db.Elapsed()
	st.db.DrainCompactions()
	ph.wall = wall
	ph.after = st.snapshot(virt)
	return ph, nil
}

// endToEndMetrics derives the five non-set-up end-to-end metrics from a
// timed phase.
func (ph phase) endToEndMetrics() map[string]float64 {
	ops := float64(ph.ops)
	d := statsDelta(ph.before.stats, ph.after.stats)
	return map[string]float64{
		"ops_per_s":             ops / ph.wall.Seconds(),
		"virt_kops":             ops / (ph.after.virt - ph.before.virt).Seconds() / 1000,
		"virt_get_tail_us":      ph.histDelta(histGetVirt).tailMean(0.01) / 1000,
		"nvm_read_ratio":        d.NVMReadRatio(),
		"flash_wr_bytes_per_op": flashFloor(float64(ph.after.flash.WriteBytes-ph.before.flash.WriteBytes) / ops),
	}
}

// flashFloor reports flash write cost no lower than 1 B/op: below that the
// metric is a handful of bytes of noise on workloads that never compact,
// and a relative bound on it would mean nothing.
func flashFloor(v float64) float64 {
	if v < 1 {
		return 1
	}
	return v
}

// statsDelta subtracts the cumulative counters the harness uses.
func statsDelta(a, b prismdb.Stats) prismdb.Stats {
	d := b
	d.Puts -= a.Puts
	d.Gets -= a.Gets
	d.GetDRAM -= a.GetDRAM
	d.GetNVM -= a.GetNVM
	d.GetFlash -= a.GetFlash
	d.GetMiss -= a.GetMiss
	d.BloomFalsePositives -= a.BloomFalsePositives
	d.InPlaceUpdates -= a.InPlaceUpdates
	d.FreshInserts -= a.FreshInserts
	d.SlabMoves -= a.SlabMoves
	d.Compactions -= a.Compactions
	d.ReadTriggeredComps -= a.ReadTriggeredComps
	d.CompactionTime -= a.CompactionTime
	d.SelectionTime -= a.SelectionTime
	d.Demoted -= a.Demoted
	d.Promoted -= a.Promoted
	d.DroppedStale -= a.DroppedStale
	d.FlashBytesRead -= a.FlashBytesRead
	d.FlashBytesWritten -= a.FlashBytesWritten
	d.WriteStalls -= a.WriteStalls
	d.WriteStallTime -= a.WriteStallTime
	d.CommitConflicts -= a.CommitConflicts
	d.CompactionHardStalls -= a.CompactionHardStalls
	d.CompactionHardStallTime -= a.CompactionHardStallTime
	d.WriteBatches -= a.WriteBatches
	d.DirectWrites -= a.DirectWrites
	d.ViewRepublishes -= a.ViewRepublishes
	d.ProducerParks -= a.ProducerParks
	return d
}
