package server

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/obs"
	"github.com/prismdb/prismdb/internal/storage"
)

// traceEngine is the optional engine interface sampled writes use to pull
// stage timings (queue wait, apply, WAL append, fsync wait) out of the
// engine. *core.DB and the prismdb facade implement it; the Engine
// interface itself stays small so test fakes keep compiling.
type traceEngine interface {
	PutTraced(key, value []byte, tr *core.OpTrace) (time.Duration, error)
	DeleteTraced(key []byte, tr *core.OpTrace) (time.Duration, error)
}

// flushReader is the pipelining valve: it sits between the connection and
// the parser's bufio.Reader and flushes the connection's pending replies
// whenever the parser actually needs bytes from the kernel. While a
// pipelined batch is still buffered, parse → execute → reply loops touch
// the socket zero times; the moment the inbound buffer runs dry, the
// accumulated replies go out in one write and the goroutine blocks in Read.
// One flush per inbound batch, and no deadlock when a client trickles half
// a command and waits for earlier replies.
//
// beforeRead runs first: it flushes the connection's pending engine SET
// batch, so the batched writes' replies land in bw before bw itself is
// flushed. The same valve that bounds reply latency therefore also bounds
// write-batch latency — a client that stops pipelining gets its OKs (and
// its writes applied) before the server blocks on the socket, never after.
type flushReader struct {
	nc         net.Conn
	bw         *bufio.Writer
	idle       time.Duration // Config.IdleTimeout; 0 = no read deadline
	beforeRead func()        // flushes the pending SET batch; set by handleConn
	flush      func() error  // flushes bw, recording flush size + traced spans
}

func (f *flushReader) Read(p []byte) (int, error) {
	if f.beforeRead != nil {
		f.beforeRead()
	}
	if f.bw.Buffered() > 0 {
		if err := f.flush(); err != nil {
			return 0, err
		}
	}
	// The idle clock re-arms per socket read: a connection only times out
	// when it produces no bytes for the whole window, never mid-pipeline
	// (buffered commands are parsed without touching the socket).
	if f.idle > 0 {
		f.nc.SetReadDeadline(time.Now().Add(f.idle))
	}
	return f.nc.Read(p)
}

// handleConn runs one connection's parse → execute → reply loop to
// completion.
func (s *Server) handleConn(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.connsLive.Add(-1)
	}()

	// The connection's scratch buffers: GETs land in st.val via the
	// engine's GetBuf zero-allocation read path and are copied straight
	// into the write buffer, and SCAN streams its pairs through st.scan;
	// both are recycled across commands, so warm reads and scans allocate
	// nothing on the server side.
	st := &connState{val: make([]byte, 0, 4096), smp: s.tracer.NewSampler()}
	defer s.fold(st)
	bw := bufio.NewWriterSize(replySink{s, st, nc}, s.cfg.WriteBuffer)
	fr := &flushReader{nc: nc, bw: bw, idle: s.cfg.IdleTimeout}
	br := bufio.NewReaderSize(fr, s.cfg.ReadBuffer)
	r := newReader(br)
	w := &writer{bw: bw}
	fr.beforeRead = func() { s.flushSetBatch(w, st) }
	// flush replaces every bare bw.Flush: it feeds the flush-size
	// histogram and closes out the traced spans whose replies ride this
	// flush (the reply-flush stage is the shared socket write).
	flush := func() error {
		n := bw.Buffered()
		f0 := time.Now()
		err := bw.Flush()
		if n > 0 {
			s.flushBytes.Observe(int64(n))
		}
		if len(st.spans) > 0 {
			d := time.Since(f0)
			for i, sp := range st.spans {
				sp.Stage(obs.StageFlush, d)
				s.tracer.Finish(sp)
				st.spans[i] = nil
			}
			st.spans = st.spans[:0]
		}
		return err
	}
	fr.flush = flush

	for {
		if s.closed.Load() {
			s.flushSetBatch(w, st)
			flush()
			return
		}
		// Sampling a command's span: when the parser already holds buffered
		// bytes the parse is real work and a pre-armed span times it; when
		// the buffer is dry, ReadCommand blocks on the socket, so the span
		// is armed after the read instead — idle wire time is not "parse".
		var sp *obs.Span
		var p0 time.Time
		buffered := br.Buffered() > 0
		if buffered {
			if sp = st.smp.Sample(); sp != nil {
				p0 = time.Now()
			}
		}
		args, err := r.ReadCommand()
		if sp != nil {
			sp.Stage(obs.StageParse, time.Since(p0))
		}
		if err != nil {
			s.tracer.Drop(sp)
			// A well-formed SET batched just before a protocol error (or
			// EOF mid-stream) still executes and gets its reply: the batch
			// flush precedes the diagnostic, mirroring the unbatched path's
			// ordering. Usually a no-op — beforeRead already flushed at the
			// last socket read.
			s.flushSetBatch(w, st)
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// The idle deadline expired: a quiet goodbye, not an error
				// reply — the client wasn't mid-command.
				s.logf("server: %s: closed after %v idle", nc.RemoteAddr(), s.cfg.IdleTimeout)
			}
			if perr, ok := err.(ProtocolError); ok {
				// One diagnostic, then hang up: a desynced RESP stream
				// cannot be safely resumed.
				s.logf("server: %s: %v", nc.RemoteAddr(), perr)
				s.errCount.Add(1)
				w.err("ERR " + perr.Error())
			}
			flush()
			return
		}
		if len(args) == 0 {
			s.tracer.Drop(sp)
			continue
		}
		if !buffered {
			sp = st.smp.Sample()
		}
		// The pipelined-write fast path: a SET that arrived with more
		// commands behind it (or while a batch is already open) is
		// deferred into the connection's batch instead of executing — the
		// whole run reaches the engine as ONE PutBatch, so N pipelined
		// SETs cost one engine submission per partition, one WAL group
		// append, and one view republication. A lone SET on an idle
		// connection executes immediately: batching it would only add
		// latency with nothing to coalesce.
		if len(args) == 3 && cmdIs(args[0], "SET") && (len(st.bpairs) > 0 || br.Buffered() > 0) {
			// A deferred SET dissolves into its batch; the batch itself is
			// traced as one unit in flushSetBatch.
			s.tracer.Drop(sp)
			st.addSet(args[1], args[2])
			if len(st.bpairs) >= setBatchMax {
				s.flushSetBatch(w, st)
			}
			continue
		}
		// Any other command first forces the pending batch out, preserving
		// per-connection order (a GET after a batched SET sees its write).
		s.flushSetBatch(w, st)
		if !s.execute(args, w, st, sp) {
			flush()
			return
		}
	}
}

// replySink is the socket as the reply buffer writes to it: every write
// first folds the connection's pending telemetry into the server's, so INFO
// and /metrics count every op whose reply a client can have received.
type replySink struct {
	s  *Server
	st *connState
	w  io.Writer // the socket
}

func (r replySink) Write(p []byte) (int, error) {
	r.s.fold(r.st)
	return r.w.Write(p)
}

// connState holds one connection's recycled scratch buffers and its
// telemetry not yet folded into the server's.
type connState struct {
	val  []byte // GetBuf value scratch
	scan []byte // SCAN's encoded key/value pairs

	// smp samples the connection's commands for tracing, at the server's
	// rate and with no counter shared across connections.
	smp obs.Sampler
	// The per-op observations and command counts since the last fold
	// (Server.fold), which runs before every socket write, before INFO,
	// and at close: the op loop bumps no shared counter or histogram.
	wall, virt [opKinds][]int64
	cmds       [opKinds]int64

	// The pipelined SET batch. The parser's argument arena is recycled by
	// the next ReadCommand, so a deferred SET's key and value are copied
	// into barena (one growable arena, recycled per flush) and bpairs
	// holds the slices handed to Engine.PutBatch. bpairs doubles as MSET's
	// pair scratch — it is always empty when execute runs.
	bpairs []core.KV
	barena []byte

	// spans are the connection's traced ops whose replies have not hit the
	// socket yet; the next flush stamps their reply-flush stage and
	// finishes them (recycled like every other scratch here).
	spans []*obs.Span
}

// foldMax bounds a connection's buffered observations per op kind, however
// many commands one inbound batch holds: a longer run folds at this size.
const foldMax = 1024

// record buffers one executed command's latencies for the next fold.
func (s *Server) record(st *connState, k opKind, wall, virt time.Duration) {
	if len(st.wall[k]) == foldMax {
		s.fold(st)
	}
	st.wall[k] = append(st.wall[k], int64(wall))
	st.virt[k] = append(st.virt[k], int64(virt))
}

// fold moves a connection's buffered command counts and per-op latencies
// into the server's counters and histograms.
func (s *Server) fold(st *connState) {
	for k := range st.cmds {
		if n := st.cmds[k]; n != 0 {
			s.cmdCounts[k].Add(n)
			st.cmds[k] = 0
		}
		if len(st.wall[k]) > 0 {
			s.opWall[k].ObserveBatch(st.wall[k])
			s.opVirt[k].ObserveBatch(st.virt[k])
			st.wall[k], st.virt[k] = st.wall[k][:0], st.virt[k][:0]
		}
	}
}

// setBatchMax bounds the deferred SET batch; it matches the engine's cap on
// a batch a write-group leader applies for its partition, past which a
// longer server-side batch would only split downstream anyway.
const setBatchMax = 128

// addSet copies one SET's key and value out of the parse arena and into
// the connection's batch. Growing barena mid-batch is fine: earlier pairs
// keep the old backing array alive, and appends never write inside an
// existing pair's bounds.
func (st *connState) addSet(key, value []byte) {
	off := len(st.barena)
	st.barena = append(st.barena, key...)
	k := st.barena[off:len(st.barena):len(st.barena)]
	off = len(st.barena)
	st.barena = append(st.barena, value...)
	v := st.barena[off:len(st.barena):len(st.barena)]
	st.bpairs = append(st.bpairs, core.KV{Key: k, Value: v})
}

// flushSetBatch hands the connection's deferred SETs to the engine as one
// PutBatch and writes their replies. No-op when the batch is empty. The
// batch's wall and virtual time are split evenly across its ops for the
// per-op histograms — the composition the engine maintains internally.
func (s *Server) flushSetBatch(w *writer, st *connState) {
	n := len(st.bpairs)
	if n == 0 {
		return
	}
	st.cmds[opSet] += int64(n)
	// The batch is traced as one unit (its member SETs dissolved into it):
	// one sampled span covering the whole PutBatch dispatch.
	sp := st.smp.Sample()
	if sp != nil {
		sp.SetOp("setbatch", st.bpairs[0].Key)
	}
	t0 := time.Now()
	vlat, err := s.eng.PutBatch(st.bpairs)
	if sp != nil {
		sp.Stage(obs.StageDispatch, time.Since(t0))
		st.spans = append(st.spans, sp)
	}
	st.bpairs = st.bpairs[:0]
	st.barena = st.barena[:0]
	if err != nil {
		// All-or-nothing reporting: PutBatch surfaces the first failure,
		// and a failed batch (in practice: the engine closed) errors every
		// op in it rather than guessing which prefix landed.
		for i := 0; i < n; i++ {
			s.errorReply(w, err)
		}
		return
	}
	wall, per := time.Since(t0), vlat/time.Duration(n)
	wper := wall / time.Duration(n)
	for i := 0; i < n; i++ {
		s.record(st, opSet, wper, per)
		w.simple("OK")
	}
}

// cmdIs compares a command name case-insensitively against an upper-case
// reference without allocating.
func cmdIs(b []byte, upper string) bool {
	if len(b) != len(upper) {
		return false
	}
	for i := 0; i < len(b); i++ {
		c := b[i]
		if 'a' <= c && c <= 'z' {
			c -= 'a' - 'A'
		}
		if c != upper[i] {
			return false
		}
	}
	return true
}

// execute dispatches one parsed command, writing its reply. It reports
// false when the connection should close (QUIT). sp is the command's
// sampled trace span (usually nil): the dispatch stage covers the whole
// command — engine call plus reply encode — and write sub-stages from the
// engine decompose it; the span is parked on st.spans for the reply flush
// to finish.
func (s *Server) execute(args [][]byte, w *writer, st *connState, sp *obs.Span) bool {
	if sp == nil {
		return s.executeCmd(args, w, st, nil)
	}
	sp.SetOp("cmd", args[0]) // fallback; the data commands override
	d0 := time.Now()
	keep := s.executeCmd(args, w, st, sp)
	sp.Stage(obs.StageDispatch, time.Since(d0))
	st.spans = append(st.spans, sp)
	return keep
}

func (s *Server) executeCmd(args [][]byte, w *writer, st *connState, sp *obs.Span) bool {
	name := args[0]
	switch {
	case cmdIs(name, "GET"):
		if len(args) != 2 {
			s.argErr(w, "get")
			return true
		}
		s.doGet(args[1], w, st, opGet, sp)
	case cmdIs(name, "SET"):
		if len(args) != 3 {
			s.argErr(w, "set")
			return true
		}
		st.cmds[opSet]++
		sp.SetOp("set", args[1])
		t0 := time.Now()
		var vlat time.Duration
		var err error
		if sp != nil && s.teng != nil {
			// Sampled write: pull the engine's stage breakdown (queue
			// wait, apply, WAL append, fsync wait) through the traced
			// variant. Identical semantics to Put.
			var tr core.OpTrace
			vlat, err = s.teng.PutTraced(args[1], args[2], &tr)
			traceStages(sp, &tr)
		} else {
			vlat, err = s.eng.Put(args[1], args[2])
		}
		if err != nil {
			s.errorReply(w, err)
			return true
		}
		s.record(st, opSet, time.Since(t0), vlat)
		w.simple("OK")
	case cmdIs(name, "DEL"):
		if len(args) < 2 {
			s.argErr(w, "del")
			return true
		}
		// Replies with the number of delete operations issued. PrismDB
		// deletes blindly (checking existence first would double the op's
		// cost), so unlike Redis the count includes keys that did not
		// exist.
		sp.SetOp("del", args[1])
		n := 0
		for _, k := range args[1:] {
			st.cmds[opDel]++
			t0 := time.Now()
			var vlat time.Duration
			var err error
			if sp != nil && s.teng != nil && n == 0 {
				// Only the first key carries the span's stage breakdown —
				// one op, one span.
				var tr core.OpTrace
				vlat, err = s.teng.DeleteTraced(k, &tr)
				traceStages(sp, &tr)
			} else {
				vlat, err = s.eng.Delete(k)
			}
			if err != nil {
				s.errorReply(w, err)
				return true
			}
			s.record(st, opDel, time.Since(t0), vlat)
			n++
		}
		w.integer(int64(n))
	case cmdIs(name, "MSET"):
		if len(args) < 3 || len(args)%2 != 1 {
			s.argErr(w, "mset")
			return true
		}
		// The pairs may alias the parse arena: PutBatch is synchronous and
		// the engine copies what it keeps before acknowledging, exactly as
		// with Put. bpairs is free scratch here — handleConn flushed the
		// deferred batch before dispatching.
		pairs := st.bpairs[:0]
		for i := 1; i+1 < len(args); i += 2 {
			pairs = append(pairs, core.KV{Key: args[i], Value: args[i+1]})
		}
		// Each pair counts as a set, so a client's issued SET count
		// balances cmd_set; cmd_mset counts the wire command itself.
		st.cmds[opMSet]++
		st.cmds[opSet] += int64(len(pairs))
		sp.SetOp("mset", args[1])
		t0 := time.Now()
		vlat, err := s.eng.PutBatch(pairs)
		st.bpairs = pairs[:0]
		if err != nil {
			s.errorReply(w, err)
			return true
		}
		s.record(st, opMSet, time.Since(t0), vlat)
		w.simple("OK")
	case cmdIs(name, "MGET"):
		if len(args) < 2 {
			s.argErr(w, "mget")
			return true
		}
		sp.SetOp("mget", args[1])
		w.array(len(args) - 1)
		for _, k := range args[1:] {
			s.doGet(k, w, st, opMGet, nil)
		}
	case cmdIs(name, "SCAN"):
		if len(args) != 3 {
			s.argErr(w, "scan")
			return true
		}
		n := parseLen(args[2])
		if n <= 0 {
			s.errCount.Add(1)
			w.err("ERR SCAN count must be a positive integer")
			return true
		}
		if n > s.cfg.MaxScanLen {
			n = s.cfg.MaxScanLen
		}
		// Stream the engine's iterator instead of materializing a []KV:
		// the reply header needs the pair count up front, so encoded pairs
		// accumulate in the connection's recycled scan scratch — no
		// per-entry allocations — and go out in one write after the count
		// is known.
		st.cmds[opScan]++
		sp.SetOp("scan", args[1])
		t0 := time.Now()
		it := s.eng.NewIterator(args[1], n)
		pairs := 0
		buf := st.scan[:0]
		for it.Valid() && pairs < n {
			buf = appendBulk(buf, it.Key())
			buf = appendBulk(buf, it.Value())
			pairs++
			it.Next()
		}
		err := it.Close()
		st.scan = buf
		if err != nil {
			s.errorReply(w, err)
			return true
		}
		s.record(st, opScan, time.Since(t0), it.Latency())
		w.array(2 * pairs)
		w.bw.Write(buf)
	case cmdIs(name, "PING"):
		st.cmds[opOther]++
		if len(args) > 1 {
			w.bulk(args[1])
		} else {
			w.simple("PONG")
		}
	case cmdIs(name, "INFO"):
		st.cmds[opOther]++
		// INFO counts every op before it on this connection, its own
		// pipeline's included.
		s.fold(st)
		section := ""
		if len(args) > 1 {
			section = string(args[1])
		}
		w.bulkString(s.info(section))
	case cmdIs(name, "HEALTH"):
		st.cmds[opOther]++
		if len(args) != 1 {
			s.argErr(w, "health")
			return true
		}
		// Flat field/value array (HGETALL-shaped), cheap to script against:
		// state, read_only flag, the first sticky cause, and when it struck.
		// An engine without health tracking (a test fake, the in-memory
		// simulator) reports healthy — its zero value.
		var h core.Health
		if s.heng != nil {
			h = s.heng.Health()
		}
		w.array(8)
		w.bulkString("state")
		w.bulkString(h.State.String())
		w.bulkString("read_only")
		if h.ReadOnly {
			w.bulkString("1")
		} else {
			w.bulkString("0")
		}
		w.bulkString("cause")
		w.bulkString(h.Cause)
		w.bulkString("since")
		if h.Since.IsZero() {
			w.bulkString("")
		} else {
			w.bulkString(h.Since.UTC().Format(time.RFC3339))
		}
	case cmdIs(name, "DEBUG"):
		st.cmds[opOther]++
		if len(args) < 2 {
			s.argErr(w, "debug")
			return true
		}
		if !cmdIs(args[1], "FAULT") {
			s.errCount.Add(1)
			w.err("ERR unknown DEBUG subcommand '" + printable(args[1]) + "'")
			return true
		}
		s.debugFault(args[2:], w)
	case cmdIs(name, "SLOWLOG"):
		st.cmds[opOther]++
		if len(args) < 2 || len(args) > 3 {
			s.argErr(w, "slowlog")
			return true
		}
		sub := args[1]
		switch {
		case cmdIs(sub, "GET"):
			n := 0 // all retained entries
			if len(args) == 3 {
				if n = parseLen(args[2]); n <= 0 {
					s.errCount.Add(1)
					w.err("ERR SLOWLOG GET count must be a positive integer")
					return true
				}
			}
			recs := s.tracer.Slow(n)
			w.array(len(recs))
			for _, rec := range recs {
				writeSpanRecord(w, rec)
			}
		case cmdIs(sub, "LEN"):
			w.integer(int64(s.tracer.SlowLen()))
		case cmdIs(sub, "RESET"):
			s.tracer.SlowReset()
			w.simple("OK")
		default:
			s.errCount.Add(1)
			w.err("ERR unknown SLOWLOG subcommand '" + printable(sub) + "'")
		}
	case cmdIs(name, "TRACE"):
		// Debug: the n most recently finished sampled spans, newest last,
		// one formatted line per span.
		st.cmds[opOther]++
		if len(args) > 2 {
			s.argErr(w, "trace")
			return true
		}
		n := 0
		if len(args) == 2 {
			if n = parseLen(args[1]); n <= 0 {
				s.errCount.Add(1)
				w.err("ERR TRACE count must be a positive integer")
				return true
			}
		}
		recs := s.tracer.Recent(n)
		w.array(len(recs))
		for _, rec := range recs {
			w.bulkString(formatSpanLine(rec))
		}
	case cmdIs(name, "COMMAND"):
		// redis-cli introspection on connect; an empty reply satisfies it.
		st.cmds[opOther]++
		w.array(0)
	case cmdIs(name, "QUIT"):
		st.cmds[opOther]++
		w.simple("OK")
		return false
	default:
		s.errCount.Add(1)
		w.err("ERR unknown command '" + printable(name) + "'")
	}
	return true
}

// debugFault arms the configured storage fault injector over the wire:
//
//	DEBUG FAULT <scope> <n> <mode> [stall_ms]
//	DEBUG FAULT RESET
//
// scope ∈ {any, wal, journal, slab, sst}; mode ∈ {error, short, torn,
// enospc, stall} (stall carries its duration in milliseconds); n counts
// in-scope I/Os until the fault fires (1 = the very next one). RESET
// disarms. Only live when Config.Faults is set (prismserver -chaos-debug):
// the chaos harness's hook for breaking storage under a live workload.
func (s *Server) debugFault(args [][]byte, w *writer) {
	if s.cfg.Faults == nil {
		s.errCount.Add(1)
		w.err("ERR DEBUG FAULT is disabled (start the server with fault injection to use it)")
		return
	}
	if len(args) == 1 && cmdIs(args[0], "RESET") {
		s.cfg.Faults.Reset()
		w.simple("OK")
		return
	}
	if len(args) != 3 && len(args) != 4 {
		s.argErr(w, "debug")
		return
	}
	scope, err := storage.ParseFaultScope(string(args[0]))
	if err != nil {
		s.errCount.Add(1)
		w.err("ERR " + err.Error())
		return
	}
	n := parseLen(args[1])
	if n <= 0 {
		s.errCount.Add(1)
		w.err("ERR DEBUG FAULT count must be a positive integer")
		return
	}
	mode, err := storage.ParseFaultMode(string(args[2]))
	if err != nil {
		s.errCount.Add(1)
		w.err("ERR " + err.Error())
		return
	}
	if mode == storage.FaultStall {
		if len(args) != 4 {
			s.errCount.Add(1)
			w.err("ERR DEBUG FAULT stall requires a duration in milliseconds")
			return
		}
		ms := parseLen(args[3])
		if ms <= 0 {
			s.errCount.Add(1)
			w.err("ERR DEBUG FAULT stall duration must be a positive integer")
			return
		}
		s.cfg.Faults.ArmStall(scope, int64(n), time.Duration(ms)*time.Millisecond)
		w.simple("OK")
		return
	}
	if len(args) != 3 {
		s.argErr(w, "debug")
		return
	}
	s.cfg.Faults.ArmScoped(scope, int64(n), mode)
	w.simple("OK")
}

// doGet serves one point read on the zero-allocation GetBuf path (GET and
// each MGET element).
func (s *Server) doGet(key []byte, w *writer, st *connState, kind opKind, sp *obs.Span) {
	st.cmds[kind]++
	sp.SetOp("get", key)
	t0 := time.Now()
	val, tier, vlat, err := s.eng.GetBuf(key, st.val[:0])
	if err != nil {
		s.errorReply(w, err)
		return
	}
	if cap(val) > cap(st.val) {
		st.val = val[:0] // the engine grew the scratch; keep the bigger one
	}
	s.record(st, kind, time.Since(t0), vlat)
	sp.SetTier(tier.String())
	if tier == core.TierMiss {
		w.null()
		return
	}
	w.bulk(val)
}

// traceStages copies an engine OpTrace's write-path breakdown onto a span.
func traceStages(sp *obs.Span, tr *core.OpTrace) {
	sp.Stage(obs.StageQueueWait, tr.QueueWait)
	sp.Stage(obs.StageApply, tr.Apply)
	sp.Stage(obs.StageWALAppend, tr.WALAppend)
	sp.Stage(obs.StageFsyncWait, tr.FsyncWait)
}

// writeSpanRecord renders one SLOWLOG entry, Redis-shaped: a 4-element
// array of id, unix start time, total duration in microseconds, and the
// op detail as an array of op, key, tier, and the non-zero stage timings.
func writeSpanRecord(w *writer, rec obs.SpanRecord) {
	w.array(4)
	w.integer(rec.ID)
	w.integer(rec.When.Unix())
	w.integer(int64(rec.Total / time.Microsecond))
	w.array(4)
	w.bulkString(rec.Op)
	key := rec.Key
	if rec.Trunc {
		key += "..."
	}
	w.bulkString(key)
	w.bulkString(rec.Tier)
	w.bulkString(rec.StageSummary())
}

// formatSpanLine renders a TRACE line for one finished span.
func formatSpanLine(rec obs.SpanRecord) string {
	key := rec.Key
	if rec.Trunc {
		key += "..."
	}
	line := fmt.Sprintf("#%d %s %s key=%q total=%v", rec.ID,
		rec.When.UTC().Format("15:04:05.000"), rec.Op, key, rec.Total)
	if rec.Tier != "" {
		line += " tier=" + rec.Tier
	}
	if sum := rec.StageSummary(); sum != "" {
		line += " " + sum
	}
	return line
}

func (s *Server) argErr(w *writer, cmd string) {
	s.errCount.Add(1)
	w.err("ERR wrong number of arguments for '" + cmd + "' command")
}

// printable truncates and sanitizes client-controlled bytes for an error
// message.
func printable(b []byte) string {
	const max = 32
	if len(b) > max {
		b = b[:max]
	}
	out := make([]byte, 0, len(b))
	for _, c := range b {
		if c < 0x20 || c > 0x7e {
			c = '?'
		}
		out = append(out, c)
	}
	return string(out)
}
