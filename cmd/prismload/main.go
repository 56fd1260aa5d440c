// Command prismload puts network load on a prismserver: a YCSB-mix load
// generator speaking the RESP2 subset, with explicit pipelining, closed-
// and open-loop modes, and per-op-type wall-clock latency reporting from
// the same log-bucketed histograms the offline bench harness uses.
//
// Closed loop (default): each connection keeps -pipeline commands in
// flight — send a window, flush once, read the window's replies — so
// throughput measures the wire + engine, not the client's turnaround.
// Open loop (-rate N): commands are issued on a fixed schedule across
// connections regardless of completions (the arrival process of a real
// front-end fleet), and latency includes any server-side queueing that
// pacing exposes.
//
// Usage:
//
//	prismload -addr 127.0.0.1:6380 -load -workload b -ops 200000
//	prismload -conns 16 -pipeline 64 -workload a
//	prismload -rate 50000 -workload c            # open loop, 50k ops/s
//	prismload -load -check                       # verify counts vs INFO
//	prismload -workload a -batch 8               # MSET-coalesced writes
//
// -batch N rewrites each connection's stream, merging every run of
// consecutive SETs into one MSET of up to N pairs — the explicit form of
// the server's pipelined-write batching, exercising the engine's
// owner-goroutine group-commit path. Reads keep their position in the
// stream, and -check still balances: the server counts each MSET pair as
// a set.
//
// -check compares the generator's issued op counts against the server's
// INFO command-counter deltas and exits non-zero on any mismatch — the
// serve-smoke harness runs exactly that.
//
// Durability checking (the crash-smoke harness): -acklog FILE journals
// every acknowledged SET/DEL key to FILE — a key is written only after its
// reply has been read off the wire, so the file is exactly the set of
// writes the server acknowledged. With -acklog, a run that dies on a broken
// connection (the server was kill -9'd mid-burst) exits 0: losing the tail
// of an in-flight window is the expected shape of a crash. After the server
// restarts, -verify FILE GETs every unambiguous key in the journal and
// exits non-zero if an acknowledged SET is missing (or an acknowledged DEL
// resurfaced) — acknowledged-write durability, end to end.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/workload"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:6380", "prismserver address")
	wl := flag.String("workload", "b", "YCSB workload letter (a..f), or x for the delete-heavy mix (~25% DEL)")
	keys := flag.Int("keys", 20000, "initial dataset keys")
	ops := flag.Int("ops", 100000, "operations to issue")
	valueSize := flag.Int("value", 128, "object size in bytes")
	conns := flag.Int("conns", 8, "client connections")
	pipeline := flag.Int("pipeline", 1, "closed-loop pipeline depth per connection (1 = unpipelined)")
	batch := flag.Int("batch", 1, "coalesce runs of consecutive SETs into MSET batches of up to N pairs (1 = plain SET)")
	rate := flag.Float64("rate", 0, "open-loop target ops/s across all connections (0 = closed loop)")
	doLoad := flag.Bool("load", false, "preload the dataset via SET before measuring")
	theta := flag.Float64("theta", 0, "zipfian parameter (0 = YCSB default 0.99)")
	seed := flag.Int64("seed", 1, "workload seed")
	check := flag.Bool("check", false, "verify issued op counts against server INFO deltas")
	dialWait := flag.Duration("wait", 5*time.Second, "how long to retry the initial connection")
	ackLogPath := flag.String("acklog", "", "journal every acknowledged SET/DEL key to this file (crash-recovery harness); server death mid-run exits 0")
	verifyPath := flag.String("verify", "", "verify a previous run's -acklog against the (restarted) server and exit; non-zero on any lost acknowledged write")
	retries := flag.Int("retries", 0, "max backoff-retry attempts after a retryable failure — connection error, -READONLY, or a max-clients rejection — before a worker gives up (0 = fail immediately; replayed ops overcount vs -check)")
	flag.Parse()

	if *verifyPath != "" {
		os.Exit(verifyAckLog(*addr, *verifyPath, *dialWait))
	}

	if *conns < 1 || *pipeline < 1 || *ops < 1 {
		log.Fatal("prismload: -conns, -pipeline, and -ops must be positive")
	}
	if len(*wl) != 1 {
		log.Fatalf("prismload: -workload must be a single letter a..f or x, got %q", *wl)
	}
	var cfg workload.Config
	if l := strings.ToUpper(*wl)[0]; l == 'X' {
		cfg = workload.DeleteHeavy(*keys, *valueSize, *theta, *seed)
	} else {
		var err error
		cfg, err = workload.YCSB(l, *keys, *valueSize, *theta, *seed)
		if err != nil {
			log.Fatalf("prismload: %v", err)
		}
	}

	if *ackLogPath != "" {
		f, err := os.Create(*ackLogPath)
		if err != nil {
			log.Fatalf("prismload: acklog: %v", err)
		}
		ackJournal = &ackLog{f: f}
		defer f.Close()
	}

	// One control connection, retried while the server starts up.
	ctl, err := dialRetry(*addr, *dialWait)
	if err != nil {
		log.Fatalf("prismload: connect %s: %v", *addr, err)
	}
	defer ctl.close()

	// Counter baseline before any of our traffic, so the -check delta
	// covers the load phase too.
	before, err := ctl.opCounts()
	if err != nil {
		log.Fatalf("prismload: INFO: %v", err)
	}

	rt := &retrier{addr: *addr, wait: *dialWait, max: *retries}

	gen := workload.NewGenerator(cfg)
	if *doLoad {
		start := time.Now()
		if err := loadPhase(*addr, gen, *keys, *conns, *dialWait, rt); err != nil {
			log.Fatalf("prismload: load: %v", err)
		}
		log.Printf("loaded %d keys in %v", *keys, time.Since(start).Round(time.Millisecond))
	}

	// Generation stays serial (the generator is not safe for concurrent
	// use); ops are dealt round-robin so every connection sees the mix.
	streams := make([][]genOp, *conns)
	var issued opCounts
	for i := 0; i < *ops; i++ {
		op := gen.Next()
		g := toGenOp(op)
		issued.add(g)
		streams[i%*conns] = append(streams[i%*conns], g)
	}
	if *batch > 1 {
		// Rewrite each stream AFTER counting: an MSET's pairs count as
		// sets on both sides (the server tallies cmd_set per element), so
		// -check stays balanced under batching.
		for c := range streams {
			streams[c] = coalesceSets(streams[c], *batch)
		}
	}

	var interval time.Duration
	if *rate > 0 {
		interval = time.Duration(float64(time.Second) * float64(*conns) / *rate)
	}

	results := make([]*connResult, *conns)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			res := newConnResult()
			results[c] = res
			nc, err := dialRetry(*addr, *dialWait)
			if err != nil {
				res.err = err
				return
			}
			defer nc.close()
			if interval > 0 {
				res.err = nc.runOpen(streams[c], interval, res, rt)
			} else {
				res.err = nc.runClosed(streams[c], *pipeline, res, rt)
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	died := false
	for _, res := range results {
		if res != nil && res.err != nil {
			if ackJournal != nil {
				// The crash harness kills the server mid-burst: broken
				// connections are the run's expected ending. Everything the
				// server acknowledged before dying is in the journal.
				log.Printf("prismload: worker stopped: %v (expected when the server is crash-tested)", res.err)
				died = true
				continue
			}
			log.Fatalf("prismload: worker: %v", res.err)
		}
	}
	if ackJournal != nil {
		log.Printf("acklog: journaled %d acknowledged writes to %s", ackJournal.n, *ackLogPath)
	}
	if died {
		report(issued, results, elapsed, *rate)
		return
	}

	after, err := ctl.opCounts()
	if err != nil {
		log.Fatalf("prismload: INFO: %v", err)
	}

	report(issued, results, elapsed, *rate)

	if *check {
		delta := after.minus(before)
		if *doLoad {
			issued.sets += int64(*keys)
		}
		ok := true
		for _, c := range []struct {
			name         string
			sent, served int64
		}{
			{"get", issued.gets, delta.gets},
			{"set", issued.sets, delta.sets},
			{"del", issued.dels, delta.dels},
			{"scan", issued.scans, delta.scans},
		} {
			if c.sent != c.served {
				fmt.Printf("CHECK FAIL %s: issued %d, server counted %d\n", c.name, c.sent, c.served)
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
		fmt.Printf("CHECK OK: server INFO counters match issued ops (get=%d set=%d del=%d scan=%d)\n",
			issued.gets, issued.sets, issued.dels, issued.scans)
	}
}

// serverError is a RESP error reply ("READONLY ...", "ERR ..."): the
// command reached the server and was refused, as opposed to a transport
// failure. The retrier tells the two apart.
type serverError string

func (e serverError) Error() string { return "server error: " + string(e) }

// Retry backoff shape: exponential from retryBase, ±50% jitter, capped.
const (
	retryBase = 10 * time.Millisecond
	retryCap  = 2 * time.Second
)

// retryCounts tallies retries by trigger, for the final report. Global
// atomics because the load phase's workers retry too, before connResults
// exist.
var retryCounts struct{ conn, readonly, maxconns atomic.Int64 }

// retryClass buckets an op-loop failure: "conn" for transport errors (the
// server died, the connection was reset or idle-closed), "readonly" for
// -READONLY refusals (the engine degraded to read-only), "maxconns" for
// the server's connection-cap rejection. Anything else — a genuine command
// error, a client bug — returns "" and is not retried.
func retryClass(err error) string {
	var se serverError
	if errors.As(err, &se) {
		switch {
		case strings.HasPrefix(string(se), "READONLY"):
			return "readonly"
		case strings.HasPrefix(string(se), "ERR max clients"):
			return "maxconns"
		}
		return ""
	}
	var ne net.Error
	if errors.As(err, &ne) || errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return "conn"
	}
	// net.OpError (reset, refused, broken pipe) without the net.Error
	// interface match still counts as transport.
	var oe *net.OpError
	if errors.As(err, &oe) {
		return "conn"
	}
	return ""
}

// retrier retries a worker's failed attempt with exponential backoff and
// jitter, bounded by max attempts per failure site. Every retry abandons
// the old connection and dials fresh: a mid-window failure leaves unread
// replies buffered on the wire, and reconnecting is the one reliable way
// to resynchronize the stream.
type retrier struct {
	addr string
	wait time.Duration
	max  int
}

func (rt *retrier) backoff(attempt int) time.Duration {
	d := retryBase << uint(attempt)
	if d <= 0 || d > retryCap {
		d = retryCap
	}
	// ±50% jitter, so a fleet of workers refused together doesn't retry
	// together.
	half := d / 2
	return half + time.Duration(rand.Int63n(int64(half)+1))
}

// again decides one failed attempt's fate: non-retryable errors (or an
// exhausted budget) come straight back to fail the worker; retryable ones
// are counted, backed off, and answered with a fresh connection swapped
// into c. Re-issuing an op whose first attempt actually landed is safe —
// SET and DEL are idempotent, and the ack journal records only replies
// that were read, so it never over-claims.
func (rt *retrier) again(c *client, err error, attempt *int) error {
	class := retryClass(err)
	if class == "" || rt.max <= 0 {
		return err
	}
	if *attempt >= rt.max {
		return fmt.Errorf("giving up after %d retries: %w", *attempt, err)
	}
	switch class {
	case "conn":
		retryCounts.conn.Add(1)
	case "readonly":
		retryCounts.readonly.Add(1)
	case "maxconns":
		retryCounts.maxconns.Add(1)
	}
	d := rt.backoff(*attempt)
	*attempt++
	time.Sleep(d)
	nc, derr := dialRetry(rt.addr, rt.wait)
	if derr != nil {
		return fmt.Errorf("reconnect after %v: %w", err, derr)
	}
	c.nc.Close()
	*c = *nc
	return nil
}

// ackLog journals acknowledged writes. One "S key" or "D key" line per
// acknowledged SET/DEL, written strictly AFTER the op's reply was read —
// the journal never claims an acknowledgement the server didn't send.
// Workload keys are ASCII ("user…"), so the format is plain text.
type ackLog struct {
	mu sync.Mutex
	f  *os.File
	n  int64
}

// ackJournal is nil unless -acklog was given; the op loops call record
// unconditionally and it no-ops when disabled.
var ackJournal *ackLog

func (a *ackLog) record(kind byte, key []byte) {
	if a == nil {
		return
	}
	line := make([]byte, 0, len(key)+3)
	if kind == 'd' {
		line = append(line, 'D', ' ')
	} else {
		line = append(line, 'S', ' ')
	}
	line = append(line, key...)
	line = append(line, '\n')
	a.mu.Lock()
	a.f.Write(line)
	a.n++
	a.mu.Unlock()
}

// verifyAckLog replays an -acklog journal against the (recovered) server:
// every key whose last fate is unambiguous must be present (acknowledged
// SET) or absent (acknowledged DEL). Keys both SET and DELed during the run
// are skipped — concurrent connections make their server-side order
// unknowable from the client. Returns the process exit code.
func verifyAckLog(addr, path string, wait time.Duration) int {
	data, err := os.ReadFile(path)
	if err != nil {
		log.Printf("prismload: verify: %v", err)
		return 1
	}
	type fate struct{ set, del bool }
	fates := make(map[string]*fate)
	order := []string{} // first-seen order, for stable output
	for _, line := range strings.Split(string(data), "\n") {
		if len(line) < 3 || line[1] != ' ' {
			continue
		}
		key := line[2:]
		f := fates[key]
		if f == nil {
			f = &fate{}
			fates[key] = f
			order = append(order, key)
		}
		if line[0] == 'D' {
			f.del = true
		} else {
			f.set = true
		}
	}

	c, err := dialRetry(addr, wait)
	if err != nil {
		log.Printf("prismload: verify: connect %s: %v", addr, err)
		return 1
	}
	defer c.close()

	const depth = 128
	var checked, skipped, lost, resurrected int
	pending := make([]string, 0, depth)
	flush := func() bool {
		if err := c.bw.Flush(); err != nil {
			log.Printf("prismload: verify: %v", err)
			return false
		}
		for _, key := range pending {
			rep, err := server.ReadReply(c.br)
			if err != nil || rep.IsErr() {
				log.Printf("prismload: verify GET %s: %v %s", key, err, rep.Str)
				return false
			}
			f := fates[key]
			if f.set && rep.Null {
				fmt.Printf("VERIFY FAIL: acknowledged SET %s lost after recovery\n", key)
				lost++
			}
			if f.del && !rep.Null {
				fmt.Printf("VERIFY FAIL: acknowledged DEL %s resurfaced after recovery\n", key)
				resurrected++
			}
			checked++
		}
		pending = pending[:0]
		return true
	}
	for _, key := range order {
		f := fates[key]
		if f.set && f.del {
			skipped++
			continue
		}
		c.writeCmd([]byte("GET"), []byte(key))
		pending = append(pending, key)
		if len(pending) == depth && !flush() {
			return 1
		}
	}
	if len(pending) > 0 && !flush() {
		return 1
	}

	// Surface the server's recovery counters alongside the verdict.
	c.writeCmd([]byte("INFO"), []byte("persistence"))
	if err := c.bw.Flush(); err == nil {
		// Best-effort: a failed INFO read must not change the verdict, so its
		// error deliberately stays out of the err name.
		if rep, rerr := server.ReadReply(c.br); rerr == nil && !rep.IsErr() && len(rep.Str) > 0 {
			fmt.Print(strings.ReplaceAll(string(rep.Str), "\r\n", "\n"))
		}
	}

	if lost+resurrected > 0 {
		fmt.Printf("VERIFY FAIL: %d lost, %d resurrected of %d checked (%d ambiguous skipped)\n",
			lost, resurrected, checked, skipped)
		return 1
	}
	fmt.Printf("VERIFY OK: %d acknowledged writes intact after recovery (%d ambiguous skipped)\n",
		checked, skipped)
	return 0
}

// genOp is one pre-generated request. kind: 'g' GET, 's' SET, 'd' DEL,
// 'r' RMW (GET + SET), 'c' SCAN, 'm' MSET (a -batch coalesced run of
// SETs; mkeys/mvals hold its pairs).
type genOp struct {
	kind    byte
	key     []byte
	value   []byte
	scanLen int
	mkeys   [][]byte
	mvals   [][]byte
}

// coalesceSets rewrites one connection's stream, merging each run of
// consecutive SETs into MSET ops of up to max pairs. Other op kinds pass
// through unchanged, so the wire-visible mix (and its ordering relative to
// the reads) is preserved — only the SET framing changes.
func coalesceSets(ops []genOp, max int) []genOp {
	out := make([]genOp, 0, len(ops))
	for i := 0; i < len(ops); {
		if ops[i].kind != 's' {
			out = append(out, ops[i])
			i++
			continue
		}
		j := i
		for j < len(ops) && ops[j].kind == 's' && j-i < max {
			j++
		}
		if j-i == 1 {
			out = append(out, ops[i])
		} else {
			m := genOp{kind: 'm', mkeys: make([][]byte, 0, j-i), mvals: make([][]byte, 0, j-i)}
			for k := i; k < j; k++ {
				m.mkeys = append(m.mkeys, ops[k].key)
				m.mvals = append(m.mvals, ops[k].value)
			}
			out = append(out, m)
		}
		i = j
	}
	return out
}

func toGenOp(op workload.Op) genOp {
	switch op.Kind {
	case workload.OpRead:
		return genOp{kind: 'g', key: op.Key}
	case workload.OpUpdate, workload.OpInsert:
		return genOp{kind: 's', key: op.Key, value: op.Value}
	case workload.OpScan:
		return genOp{kind: 'c', key: op.Key, scanLen: op.ScanLen}
	case workload.OpDelete:
		return genOp{kind: 'd', key: op.Key}
	default: // OpRMW
		return genOp{kind: 'r', key: op.Key, value: op.Value}
	}
}

// opCounts tallies commands by wire op, the same buckets INFO reports.
type opCounts struct{ gets, sets, dels, scans int64 }

func (o *opCounts) add(g genOp) {
	switch g.kind {
	case 'g':
		o.gets++
	case 's':
		o.sets++
	case 'd':
		o.dels++
	case 'c':
		o.scans++
	case 'r':
		o.gets++
		o.sets++
	}
}

func (o opCounts) minus(b opCounts) opCounts {
	return opCounts{o.gets - b.gets, o.sets - b.sets, o.dels - b.dels, o.scans - b.scans}
}

// connResult is one worker's private histograms (merged after the run).
type connResult struct {
	get, set, del, scan, mset *metrics.Histogram
	err                       error
}

func newConnResult() *connResult {
	return &connResult{
		get:  metrics.NewHistogram(),
		set:  metrics.NewHistogram(),
		del:  metrics.NewHistogram(),
		scan: metrics.NewHistogram(),
		mset: metrics.NewHistogram(),
	}
}

func (r *connResult) histFor(kind byte) *metrics.Histogram {
	switch kind {
	case 'g':
		return r.get
	case 'd':
		return r.del
	case 'c':
		return r.scan
	case 'm':
		return r.mset
	default:
		return r.set
	}
}

// client is one RESP connection.
type client struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func dialRetry(addr string, wait time.Duration) (*client, error) {
	deadline := time.Now().Add(wait)
	for {
		nc, err := net.Dial("tcp", addr)
		if err == nil {
			return &client{
				nc: nc,
				br: bufio.NewReaderSize(nc, 64<<10),
				bw: bufio.NewWriterSize(nc, 64<<10),
			}, nil
		}
		if time.Now().After(deadline) {
			return nil, err
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func (c *client) close() { c.nc.Close() }

// writeCmd encodes one command as a RESP array of bulk strings.
func (c *client) writeCmd(args ...[]byte) {
	fmt.Fprintf(c.bw, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(c.bw, "$%d\r\n", len(a))
		c.bw.Write(a)
		c.bw.WriteString("\r\n")
	}
}

// writeOp emits the wire command(s) for one genOp, returning how many
// replies it will produce.
func (c *client) writeOp(g genOp) int {
	switch g.kind {
	case 'g':
		c.writeCmd([]byte("GET"), g.key)
		return 1
	case 's':
		c.writeCmd([]byte("SET"), g.key, g.value)
		return 1
	case 'c':
		c.writeCmd([]byte("SCAN"), g.key, []byte(strconv.Itoa(g.scanLen)))
		return 1
	case 'd':
		c.writeCmd([]byte("DEL"), g.key)
		return 1
	case 'm':
		args := make([][]byte, 0, 1+2*len(g.mkeys))
		args = append(args, []byte("MSET"))
		for i := range g.mkeys {
			args = append(args, g.mkeys[i], g.mvals[i])
		}
		c.writeCmd(args...)
		return 1
	default: // RMW: read, then write what the generator produced
		c.writeCmd([]byte("GET"), g.key)
		c.writeCmd([]byte("SET"), g.key, g.value)
		return 2
	}
}

func (c *client) readOK() error {
	rep, err := server.ReadReply(c.br)
	if err != nil {
		return err
	}
	if rep.IsErr() {
		return serverError(rep.Str)
	}
	return nil
}

// runClosed keeps up to depth genOps in flight: write a window, flush
// once, read the window's replies. Per-op latency is measured from the
// window's flush to that op's reply — the closed-loop client's real wait.
// A retryable failure replays the window's unacknowledged tail on a fresh
// connection, with backoff.
func (c *client) runClosed(ops []genOp, depth int, res *connResult, rt *retrier) error {
	for off := 0; off < len(ops); off += depth {
		end := off + depth
		if end > len(ops) {
			end = len(ops)
		}
		window := ops[off:end]
		acked := 0
		attempt := 0
		for {
			err := c.issueWindow(window[acked:], res, &acked)
			if err == nil {
				break
			}
			if rerr := rt.again(c, err, &attempt); rerr != nil {
				return rerr
			}
		}
	}
	return nil
}

// issueWindow writes one window remainder, flushes once, and reads the
// replies in order, advancing *acked past each fully acknowledged op — so
// a mid-window failure tells the retry loop exactly which suffix to
// replay. Acks journal only after the op's own reply is read, never on
// issue.
func (c *client) issueWindow(window []genOp, res *connResult, acked *int) error {
	replies := 0
	for _, g := range window {
		replies += c.writeOp(g)
	}
	t0 := time.Now()
	if err := c.bw.Flush(); err != nil {
		return err
	}
	ri := 0
	for _, g := range window {
		n := 1
		if g.kind == 'r' {
			n = 2
		}
		for i := 0; i < n; i++ {
			if err := c.readOK(); err != nil {
				return err
			}
			ri++
		}
		res.histFor(g.kind).Record(time.Since(t0))
		switch g.kind {
		case 's', 'd', 'r':
			ackJournal.record(g.kind, g.key)
		case 'm':
			// One MSET reply acknowledges every pair in it.
			for _, k := range g.mkeys {
				ackJournal.record('s', k)
			}
		}
		*acked++
	}
	if ri != replies {
		return fmt.Errorf("reply accounting bug: read %d, expected %d", ri, replies)
	}
	return nil
}

// runOpen issues ops on a fixed schedule (absolute deadlines, so a slow
// reply doesn't shift the arrival process) and reads replies from a
// concurrent reader. Latency is send-to-reply per op. A retryable failure
// replays every op whose acknowledgement never arrived — the op the
// reader failed on, everything queued behind it, and everything unsent —
// on a fresh connection; the replay runs on the same pacing schedule.
func (c *client) runOpen(ops []genOp, interval time.Duration, res *connResult, rt *retrier) error {
	attempt := 0
	for {
		replay, err := c.openPass(ops, interval, res)
		if err == nil {
			return nil
		}
		if rerr := rt.again(c, err, &attempt); rerr != nil {
			return rerr
		}
		ops = replay
	}
}

// openPass runs one open-loop pass over ops. On failure it returns the
// unacknowledged suffix for the caller to replay (re-issuing a write that
// DID land is idempotent; the ack journal records only read replies, so
// it never over-claims).
func (c *client) openPass(ops []genOp, interval time.Duration, res *connResult) ([]genOp, error) {
	type inflight struct {
		op      genOp
		t0      time.Time
		replies int
	}
	type readFail struct {
		err     error
		unacked []genOp
	}
	// The queue bounds how far issuance may outrun the server before the
	// writer blocks (a saturated open loop degenerates to closed).
	queue := make(chan inflight, 1<<14)
	stop := make(chan struct{}) // reader → writer: stop issuing
	readerDone := make(chan readFail, 1)
	go func() {
		for f := range queue {
			for i := 0; i < f.replies; i++ {
				if err := c.readOK(); err != nil {
					// Collect this op and everything still queued behind it
					// as unacknowledged. The writer sees stop, closes the
					// queue, and the drain below terminates.
					close(stop)
					un := []genOp{f.op}
					for q := range queue {
						un = append(un, q.op)
					}
					readerDone <- readFail{err: err, unacked: un}
					return
				}
			}
			res.histFor(f.op.kind).Record(time.Since(f.t0))
			switch f.op.kind {
			case 's', 'd', 'r':
				ackJournal.record(f.op.kind, f.op.key)
			case 'm':
				for _, k := range f.op.mkeys {
					ackJournal.record('s', k)
				}
			}
		}
		readerDone <- readFail{}
	}()

	start := time.Now()
	for i, g := range ops {
		next := start.Add(time.Duration(i) * interval)
		if d := time.Until(next); d > 0 {
			time.Sleep(d)
		}
		select {
		case <-stop:
			// The reader hit an error; ops[i:] were never sent.
			close(queue)
			rf := <-readerDone
			return append(rf.unacked, ops[i:]...), rf.err
		default:
		}
		t0 := time.Now()
		replies := c.writeOp(g)
		if err := c.bw.Flush(); err != nil {
			// Unwedge the reader wherever it is blocked — mid-read on the
			// broken conn (Close errors it out) or on the queue receive
			// (the close ends its range) — then collect its verdict.
			c.nc.Close()
			close(queue)
			rf := <-readerDone
			un := append(rf.unacked, g)
			return append(un, ops[i+1:]...), err
		}
		queue <- inflight{g, t0, replies} // never blocks forever: the reader drains until close
	}
	close(queue)
	if rf := <-readerDone; rf.err != nil {
		return rf.unacked, rf.err
	}
	return nil, nil
}

// opCounts parses the INFO ops section's cmd_* counters.
func (c *client) opCounts() (opCounts, error) {
	c.writeCmd([]byte("INFO"), []byte("ops"))
	if err := c.bw.Flush(); err != nil {
		return opCounts{}, err
	}
	rep, err := server.ReadReply(c.br)
	if err != nil {
		return opCounts{}, err
	}
	if rep.IsErr() {
		return opCounts{}, fmt.Errorf("INFO: %s", rep.Str)
	}
	var out opCounts
	for _, line := range strings.Split(string(rep.Str), "\r\n") {
		name, val, ok := strings.Cut(line, ":")
		if !ok {
			continue
		}
		n, err := strconv.ParseInt(val, 10, 64)
		if err != nil {
			continue
		}
		switch name {
		case "cmd_get":
			out.gets = n
		case "cmd_set":
			out.sets = n
		case "cmd_del":
			out.dels = n
		case "cmd_scan":
			out.scans = n
		}
	}
	return out, nil
}

func report(issued opCounts, results []*connResult, elapsed time.Duration, rate float64) {
	total := newConnResult()
	for _, r := range results {
		if r == nil {
			continue
		}
		total.get.Merge(r.get)
		total.set.Merge(r.set)
		total.del.Merge(r.del)
		total.scan.Merge(r.scan)
		total.mset.Merge(r.mset)
	}
	n := issued.gets + issued.sets + issued.dels + issued.scans
	fmt.Printf("issued %d wire ops in %v: %.0f ops/s", n, elapsed.Round(time.Millisecond),
		float64(n)/elapsed.Seconds())
	if rate > 0 {
		fmt.Printf(" (offered %.0f ops/s)", rate)
	}
	fmt.Println()
	for _, row := range []struct {
		name string
		h    *metrics.Histogram
	}{{"get", total.get}, {"set", total.set}, {"del", total.del}, {"scan", total.scan}, {"mset", total.mset}} {
		if row.h.Count() == 0 {
			continue
		}
		fmt.Printf("  %-4s n=%-8d p50=%-10v p99=%-10v max=%v\n", row.name, row.h.Count(),
			row.h.Quantile(0.5), row.h.Quantile(0.99), row.h.Max())
	}
	rc, rr, rm := retryCounts.conn.Load(), retryCounts.readonly.Load(), retryCounts.maxconns.Load()
	if rc+rr+rm > 0 {
		fmt.Printf("  retries: conn=%d readonly=%d maxclients=%d\n", rc, rr, rm)
	}
}

// loadPhase SETs the initial dataset over conns pipelined connections,
// retrying each window's unacknowledged tail on retryable failures.
func loadPhase(addr string, gen *workload.Generator, keys, conns int, wait time.Duration, rt *retrier) error {
	const depth = 128
	type chunk struct{ lo, hi int }
	chunks := make(chan chunk, conns)
	per := (keys + conns - 1) / conns
	for lo := 0; lo < keys; lo += per {
		hi := lo + per
		if hi > keys {
			hi = keys
		}
		chunks <- chunk{lo, hi}
	}
	close(chunks)

	// LoadValue is deterministic per index, so workers can regenerate
	// values without sharing the generator.
	var wg sync.WaitGroup
	errs := make(chan error, conns)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			nc, err := dialRetry(addr, wait)
			if err != nil {
				errs <- err
				return
			}
			defer nc.close()
			for ck := range chunks {
				for off := ck.lo; off < ck.hi; off += depth {
					end := off + depth
					if end > ck.hi {
						end = ck.hi
					}
					// acked advances past each SET whose reply was read, so
					// a retry replays only the unacknowledged tail
					// (LoadKey/LoadValue are deterministic per index — the
					// replayed pairs regenerate identically).
					acked := off
					attempt := 0
					for acked < end {
						err := func() error {
							for i := acked; i < end; i++ {
								nc.writeCmd([]byte("SET"), gen.LoadKey(i), gen.LoadValue(i))
							}
							if err := nc.bw.Flush(); err != nil {
								return err
							}
							for i := acked; i < end; i++ {
								if err := nc.readOK(); err != nil {
									return err
								}
								ackJournal.record('s', gen.LoadKey(i))
								acked = i + 1
							}
							return nil
						}()
						if err == nil {
							break
						}
						if rerr := rt.again(nc, err, &attempt); rerr != nil {
							errs <- rerr
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return err
	}
	return nil
}
