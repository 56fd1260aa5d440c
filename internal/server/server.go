// Package server is PrismDB's network front end: a RESP2-subset TCP server
// lean enough not to squander the engine's microsecond-scale operations.
//
// The design is one goroutine per connection over the engine's
// shared-nothing partitions (requests serialize per partition inside the
// engine, so N connections drive up to N partitions concurrently), with
// explicit pipelining on the wire: commands are parsed and executed as they
// arrive, replies accumulate in the connection's write buffer, and the
// buffer is flushed only when the parser would block on the socket — so a
// pipelined batch of K commands costs one inbound read, K engine calls, and
// one outbound write, regardless of K.
//
// The data path is allocation-conscious end to end: the parser recycles a
// per-connection argument arena, reads ride the engine's GetBuf zero-alloc
// path through a per-connection scratch buffer, and replies are formatted
// into the write buffer without intermediate allocations.
//
// Writes ride the engine's batch path: a pipelined run of
// SETs is accumulated per connection and handed to the engine as ONE
// PutBatch the moment a non-SET command or the flush-on-read valve forces
// it out — so a pipelined write burst costs one engine submission per
// partition, one WAL group append, and one view republication. MSET is the
// explicit form of the same batch.
//
// Protocol subset: GET, SET, DEL, MGET, MSET, SCAN, PING, INFO, HEALTH,
// SLOWLOG, TRACE, COMMAND, QUIT (plus DEBUG FAULT when fault injection is
// configured).
// SCAN is PrismDB's range scan (SCAN start count → a flat array of
// alternating keys and values), not Redis's cursor iteration. INFO reports
// server counters, engine Stats, tier hit ratios, and per-op latency
// distributions in both virtual (simulated) and wall-clock time.
package server

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/storage"
)

// Engine is the storage interface the server serves. *core.DB implements
// it, and so does the public facade (prismdb.DB re-exports core's types),
// so cmd/prismserver can hand the facade straight in.
type Engine interface {
	Put(key, value []byte) (time.Duration, error)
	// PutBatch applies a group of puts as one engine batch: the pairs for
	// each partition are submitted together, so the engine applies them in
	// one critical section with one WAL group append and one view
	// republication. The returned latency is the batch's summed
	// per-op virtual time.
	PutBatch(pairs []core.KV) (time.Duration, error)
	GetBuf(key, buf []byte) ([]byte, core.Tier, time.Duration, error)
	Delete(key []byte) (time.Duration, error)
	NewIterator(start []byte, limitHint int) *core.Iterator
	Stats() core.Stats
	Elapsed() time.Duration
}

// Config parameterizes a Server.
type Config struct {
	// Engine is required.
	Engine Engine
	// MaxScanLen caps one SCAN command's result count (default 10000).
	MaxScanLen int
	// ReadBuffer and WriteBuffer size each connection's bufio buffers
	// (default 64 KiB). The read buffer bounds how much of a pipelined
	// batch is parsed per syscall; the write buffer, how many replies one
	// flush carries.
	ReadBuffer, WriteBuffer int
	// Logf, when non-nil, receives connection-level diagnostics.
	Logf func(format string, args ...interface{})

	// Metrics is the registry the server records into. Pass the same
	// registry as core.Options.Metrics and one /metrics endpoint exposes
	// the whole stack; nil creates a private registry (the instruments are
	// always live — the op loop's recording cost is unconditional).
	Metrics *obs.Registry
	// Events is the structured event log surfaced by INFO events (shared
	// with the engine the same way; nil creates a private one).
	Events *obs.EventLog
	// TraceSample traces roughly one in every TraceSample commands through
	// the op's stage pipeline, feeding SLOWLOG and TRACE. 0 uses the
	// default (64); negative disables tracing.
	TraceSample int
	// SlowlogLen bounds SLOWLOG GET's ring of slowest traced ops
	// (default 32).
	SlowlogLen int

	// MaxConns caps concurrently open client connections (0 = unlimited).
	// A connection past the cap gets one "-ERR max clients reached" reply
	// and is closed before a handler goroutine is spawned, so an
	// overloaded server degrades with a crisp refusal instead of an
	// unbounded goroutine pile.
	MaxConns int
	// IdleTimeout closes a connection whose socket has produced no bytes
	// for the duration (0 = never). The deadline re-arms at every socket
	// read, so a pipelining client is never cut mid-burst — only one that
	// has gone quiet.
	IdleTimeout time.Duration
	// Faults, when non-nil, enables the DEBUG FAULT command: the chaos
	// harness's wire-level hook for arming the storage fault injector
	// under a live workload. Leave nil outside fault testing — the
	// command then answers with an error.
	Faults *storage.FaultInjector
}

// traceSampleDefault is the 1-in-N command sampling rate when
// Config.TraceSample is zero: cheap enough to leave on (one per-connection
// countdown step per command plus one pooled span per sample), frequent
// enough that SLOWLOG fills within seconds under load.
const traceSampleDefault = 64

// opKind indexes the per-command metrics.
type opKind int

const (
	opGet opKind = iota
	opSet
	opDel
	opMGet
	opScan
	opMSet
	opOther // must stay last: the INFO latency loop skips it by position
	opKinds
)

var opNames = [opKinds]string{"get", "set", "del", "mget", "scan", "mset", "other"}

// healthEngine is the optional engine interface behind the HEALTH command
// and INFO's health section. *core.DB and the prismdb facade implement it;
// an engine without it (a test fake) reports healthy.
type healthEngine interface {
	Health() core.Health
}

// Server is a RESP2-subset front end over an Engine.
type Server struct {
	cfg  Config
	eng  Engine
	teng traceEngine  // non-nil when eng supports traced writes
	heng healthEngine // non-nil when eng reports failure-domain health

	ln     net.Listener
	lnMu   sync.Mutex
	closed atomic.Bool

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup

	start time.Time

	// Telemetry. The per-op latency histograms are server-global lock-free
	// histograms. Each connection buffers its observations and command
	// counts and folds them in before every write to its socket and before
	// INFO runs (conn.go), so INFO and /metrics read live connections up to
	// the last reply they flushed, and the op loop bumps no shared counter.
	reg        *obs.Registry
	events     *obs.EventLog
	tracer     *obs.Tracer
	opWall     [opKinds]*metrics.Histogram // wall clock around the engine call
	opVirt     [opKinds]*metrics.Histogram // engine-billed virtual time
	flushBytes *metrics.Histogram          // reply bytes per socket flush

	// Command counters, atomics so INFO reads them live (cmd/prismserver's
	// end-to-end test compares them against the op counts it issued); INFO
	// and /metrics both read them through serverSeries.
	cmdCounts   [opKinds]atomic.Int64
	errCount    atomic.Int64
	connsTotal  atomic.Int64
	connsLive   atomic.Int64
	connRejects atomic.Int64 // refused at the MaxConns cap
}

// New builds a Server. Call Serve to start it.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		return nil, fmt.Errorf("server: Config.Engine is required")
	}
	if cfg.MaxScanLen <= 0 {
		cfg.MaxScanLen = 10000
	}
	if cfg.ReadBuffer <= 0 {
		cfg.ReadBuffer = 64 << 10
	}
	if cfg.WriteBuffer <= 0 {
		cfg.WriteBuffer = 64 << 10
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	if cfg.Events == nil {
		cfg.Events = obs.NewEventLog(256)
	}
	sample := cfg.TraceSample
	switch {
	case sample == 0:
		sample = traceSampleDefault
	case sample < 0:
		sample = 0 // tracer disabled: Sample always returns nil
	}
	if cfg.SlowlogLen <= 0 {
		cfg.SlowlogLen = 32
	}
	s := &Server{
		cfg:    cfg,
		eng:    cfg.Engine,
		conns:  map[net.Conn]struct{}{},
		start:  time.Now(),
		reg:    cfg.Metrics,
		events: cfg.Events,
		tracer: obs.NewTracer(sample, cfg.SlowlogLen, 0),
	}
	s.teng, _ = cfg.Engine.(traceEngine)
	s.heng, _ = cfg.Engine.(healthEngine)
	for k := opKind(0); k < opKinds; k++ {
		s.opWall[k] = s.reg.Histogram(
			`prism_server_op_wall_latency_seconds{op="`+opNames[k]+`"}`,
			"Wall-clock latency around the engine call, by op.", obs.UnitSeconds)
		s.opVirt[k] = s.reg.Histogram(
			`prism_server_op_virtual_latency_seconds{op="`+opNames[k]+`"}`,
			"Engine-billed virtual-time latency, by op.", obs.UnitSeconds)
	}
	s.flushBytes = s.reg.Histogram("prism_server_reply_flush_bytes",
		"Reply bytes written per socket flush.", obs.UnitCount)
	s.reg.Collect(func(g *obs.Gathered) { obs.Export(g, serverSeries, s) })
	return s, nil
}

// Registry returns the server's metrics registry (Config.Metrics or the
// private one New created), for mounting on an obs HTTP mux.
func (s *Server) Registry() *obs.Registry { return s.reg }

// Events returns the server's structured event log.
func (s *Server) Events() *obs.EventLog { return s.events }

// Serve accepts connections on ln until Shutdown (which returns nil here)
// or a listener error.
func (s *Server) Serve(ln net.Listener) error {
	s.lnMu.Lock()
	s.ln = ln
	s.lnMu.Unlock()
	for {
		nc, err := ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return nil
			}
			return err
		}
		// Registration (conns map + WaitGroup) and Shutdown's closed-flag
		// store serialize on s.mu: either this connection registers before
		// Shutdown begins waiting — so the Wait covers it and the
		// force-close sweep can reach it — or it observes closed and is
		// dropped. Without the lock, an Accept racing Shutdown could
		// wg.Add concurrently with wg.Wait (a documented WaitGroup
		// misuse) and leak an untracked connection.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		if s.cfg.MaxConns > 0 && len(s.conns) >= s.cfg.MaxConns {
			s.mu.Unlock()
			s.connRejects.Add(1)
			// One crisp diagnostic, no handler goroutine. The write rides
			// a short deadline so a client that never reads cannot wedge
			// the accept loop.
			nc.SetWriteDeadline(time.Now().Add(time.Second))
			nc.Write([]byte("-ERR max clients reached\r\n"))
			nc.Close()
			continue
		}
		s.connsTotal.Add(1)
		s.connsLive.Add(1)
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.handleConn(nc)
	}
}

// Addr returns the listener address (nil before Serve).
func (s *Server) Addr() net.Addr {
	s.lnMu.Lock()
	defer s.lnMu.Unlock()
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown stops accepting, lets in-flight connections drain for up to
// grace, then force-closes stragglers. It returns once every connection
// goroutine has exited; the engine is not closed (the caller owns it —
// close it after Shutdown so racing requests fail with core.ErrClosed
// rather than hitting torn-down state).
func (s *Server) Shutdown(grace time.Duration) error {
	s.mu.Lock()
	s.closed.Store(true) // under s.mu: serializes with Serve's registration
	s.mu.Unlock()
	s.lnMu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	s.lnMu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-time.After(grace):
	}
	s.mu.Lock()
	n := len(s.conns)
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	s.logf("server: force-closed %d connection(s) after %v drain window", n, grace)
	<-done
	return nil
}

func (s *Server) logf(format string, args ...interface{}) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// errorReply formats an engine error as a RESP error and counts it. A
// degraded engine's ErrReadOnly maps to the Redis-shaped -READONLY error
// class, so clients can tell a policy refusal — back off, maybe fail over
// — from a plain command failure.
func (s *Server) errorReply(w *writer, err error) {
	s.errCount.Add(1)
	if errors.Is(err, core.ErrReadOnly) {
		w.err("READONLY " + err.Error())
		return
	}
	w.err("ERR " + err.Error())
}
