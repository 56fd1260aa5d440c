package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/simdev"
)

// testEngine builds a small single-partition DB (multi-partition variants
// pass their own options).
func testEngine(t testing.TB, parts int) *core.DB {
	t.Helper()
	opts := core.Options{
		Partitions:       parts,
		NVM:              simdev.New(simdev.NVMParams(64 << 20)),
		Flash:            simdev.New(simdev.QLCParams(512 << 20)),
		Cache:            simdev.NewPageCache(1 << 20),
		NVMBudget:        4 << 20,
		TrackerCapacity:  1024,
		PinningThreshold: 0.7,
		KeySpace:         1 << 16,
		BucketKeys:       256,
		TargetSSTBytes:   64 << 10,
		Seed:             1,
	}
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// startServer runs a Server on loopback and returns it with a dialer.
// Cleanup shuts it down.
func startServer(t testing.TB, eng Engine) (*Server, func() net.Conn) {
	t.Helper()
	srv, err := New(Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()
	t.Cleanup(func() {
		if err := srv.Shutdown(2 * time.Second); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
		if err := <-serveErr; err != nil {
			t.Errorf("Serve: %v", err)
		}
	})
	dial := func() net.Conn {
		nc, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		return nc
	}
	return srv, dial
}

// respCmd encodes a command as a RESP array of bulk strings.
func respCmd(args ...string) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "*%d\r\n", len(args))
	for _, a := range args {
		fmt.Fprintf(&b, "$%d\r\n%s\r\n", len(a), a)
	}
	return b.Bytes()
}

// roundTrip sends one command and reads one reply.
func roundTrip(t *testing.T, nc net.Conn, br *bufio.Reader, args ...string) Reply {
	t.Helper()
	if _, err := nc.Write(respCmd(args...)); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReply(br)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestCommandsRoundTrip(t *testing.T) {
	db := testEngine(t, 2)
	_, dial := startServer(t, db)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	if rep := roundTrip(t, nc, br, "PING"); string(rep.Str) != "PONG" {
		t.Fatalf("PING → %q", rep.Str)
	}
	if rep := roundTrip(t, nc, br, "SET", "user1", "v1"); string(rep.Str) != "OK" {
		t.Fatalf("SET → %q", rep.Str)
	}
	for i := 2; i <= 9; i++ {
		roundTrip(t, nc, br, "SET", fmt.Sprintf("user%d", i), fmt.Sprintf("v%d", i))
	}
	if rep := roundTrip(t, nc, br, "GET", "user1"); string(rep.Str) != "v1" {
		t.Fatalf("GET → %q", rep.Str)
	}
	if rep := roundTrip(t, nc, br, "GET", "nosuch"); !rep.Null {
		t.Fatalf("GET missing → %+v, want null", rep)
	}
	rep := roundTrip(t, nc, br, "MGET", "user1", "nosuch", "user3")
	if len(rep.Elems) != 3 || string(rep.Elems[0].Str) != "v1" ||
		!rep.Elems[1].Null || string(rep.Elems[2].Str) != "v3" {
		t.Fatalf("MGET → %+v", rep)
	}
	rep = roundTrip(t, nc, br, "SCAN", "user", "100")
	if len(rep.Elems) != 18 { // 9 keys × (key, value)
		t.Fatalf("SCAN → %d elements, want 18", len(rep.Elems))
	}
	if string(rep.Elems[0].Str) != "user1" || string(rep.Elems[1].Str) != "v1" {
		t.Fatalf("SCAN first pair = %q,%q", rep.Elems[0].Str, rep.Elems[1].Str)
	}
	if rep := roundTrip(t, nc, br, "DEL", "user1", "user2"); rep.Int != 2 {
		t.Fatalf("DEL → %d, want 2", rep.Int)
	}
	if rep := roundTrip(t, nc, br, "GET", "user1"); !rep.Null {
		t.Fatalf("GET after DEL → %+v, want null", rep)
	}
	rep = roundTrip(t, nc, br, "INFO")
	if !bytes.Contains(rep.Str, []byte("# engine")) ||
		!bytes.Contains(rep.Str, []byte("# tiers")) {
		t.Fatalf("INFO missing sections:\n%s", rep.Str)
	}
	if rep := roundTrip(t, nc, br, "BOGUS", "x"); !rep.IsErr() {
		t.Fatalf("unknown command → %+v, want error", rep)
	}
	if rep := roundTrip(t, nc, br, "GET"); !rep.IsErr() {
		t.Fatalf("GET arity → %+v, want error", rep)
	}
}

// TestInlineCommands drives the telnet-convenience syntax.
func TestInlineCommands(t *testing.T) {
	db := testEngine(t, 1)
	_, dial := startServer(t, db)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	if _, err := nc.Write([]byte("SET ikey ival\r\nGET ikey\r\n")); err != nil {
		t.Fatal(err)
	}
	if rep, err := ReadReply(br); err != nil || string(rep.Str) != "OK" {
		t.Fatalf("inline SET → %v %q", err, rep.Str)
	}
	if rep, err := ReadReply(br); err != nil || string(rep.Str) != "ival" {
		t.Fatalf("inline GET → %v %q", err, rep.Str)
	}
}

// TestPipelinedBatch sends one write containing many commands and checks
// the replies come back complete and in order.
func TestPipelinedBatch(t *testing.T) {
	db := testEngine(t, 2)
	_, dial := startServer(t, db)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	const n = 200
	var batch bytes.Buffer
	for i := 0; i < n; i++ {
		batch.Write(respCmd("SET", fmt.Sprintf("k%04d", i), fmt.Sprintf("v%04d", i)))
	}
	for i := 0; i < n; i++ {
		batch.Write(respCmd("GET", fmt.Sprintf("k%04d", i)))
	}
	if _, err := nc.Write(batch.Bytes()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		rep, err := ReadReply(br)
		if err != nil || string(rep.Str) != "OK" {
			t.Fatalf("pipelined SET %d → %v %q", i, err, rep.Str)
		}
	}
	for i := 0; i < n; i++ {
		rep, err := ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%04d", i); string(rep.Str) != want {
			t.Fatalf("pipelined GET %d → %q, want %q", i, rep.Str, want)
		}
	}
}

// malformedRESP is the wire path's table of malformed and truncated RESP
// streams; FuzzReadCommand seeds its corpus from it.
var malformedRESP = []struct {
	name  string
	input string
}{
	{"bad array length", "*abc\r\n"},
	{"negative array", "*-2\r\n"},
	{"huge array", "*99999999\r\n"},
	{"overflow array", "*99999999999999999999\r\n"},
	{"missing bulk header", "*1\r\nGET\r\n"},
	{"bad bulk length", "*1\r\n$abc\r\n"},
	{"negative bulk", "*1\r\n$-5\r\n"},
	{"huge bulk", "*1\r\n$999999999\r\n"},
	{"max bulk announced, none sent", "*1\r\n$8388608\r\n"},
	{"overflow bulk", "*1\r\n$99999999999999999999\r\n"},
	{"truncated bulk body", "*1\r\n$10\r\nab"},
	{"truncated after header", "*2\r\n$3\r\nGET\r\n"},
	{"bulk missing crlf", "*1\r\n$3\r\nGETXY"},
	{"bulk bad terminator", "*1\r\n$3\r\nGETxx"},
	{"truncated array header", "*"},
	{"truncated bulk header", "*1\r\n$"},
	{"stray binary", "\x00\x01\x02\x03\xff\xfe\r\n"},
	{"inline too many args", "PING " + repeat("a ", MaxArgs+2)},
	{"half command then eof", "*3\r\n$3\r\nSET\r\n$1\r\nk"},
}

// TestMalformedInput drives malformedRESP over the wire: every stream must
// produce an error reply and/or a closed connection — never a panic, never a
// hang — and the server must stay healthy for subsequent connections.
func TestMalformedInput(t *testing.T) {
	db := testEngine(t, 1)
	_, dial := startServer(t, db)

	for _, tc := range malformedRESP {
		t.Run(tc.name, func(t *testing.T) {
			nc := dial()
			defer nc.Close()
			nc.SetDeadline(time.Now().Add(5 * time.Second))
			if _, err := nc.Write([]byte(tc.input)); err != nil {
				t.Fatal(err)
			}
			// Signal end-of-input so truncation cases resolve, then drain:
			// the server may send -ERR before closing, or just close.
			if tcp, ok := nc.(*net.TCPConn); ok {
				tcp.CloseWrite()
			}
			buf := make([]byte, 4096)
			for {
				if _, err := nc.Read(buf); err != nil {
					break
				}
			}
		})
	}

	// The server must still serve fresh connections afterwards.
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)
	if rep := roundTrip(t, nc, br, "PING"); string(rep.Str) != "PONG" {
		t.Fatalf("server unhealthy after malformed inputs: %+v", rep)
	}
}

func repeat(s string, n int) string {
	var b bytes.Buffer
	for i := 0; i < n; i++ {
		b.WriteString(s)
	}
	return b.String()
}

// TestConcurrentPipelinedClients drives N clients, each pipelining batches
// of mixed commands, against one server — the -race half of the wire-path
// satellite (run under make test's race pass).
func TestConcurrentPipelinedClients(t *testing.T) {
	db := testEngine(t, 4)
	srv, dial := startServer(t, db)

	const (
		clients   = 8
		batches   = 20
		batchSize = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			nc := dial()
			defer nc.Close()
			br := bufio.NewReader(nc)
			for b := 0; b < batches; b++ {
				var batch bytes.Buffer
				for i := 0; i < batchSize; i++ {
					k := fmt.Sprintf("c%dk%04d", c, b*batchSize+i)
					batch.Write(respCmd("SET", k, fmt.Sprintf("val-%s", k)))
					batch.Write(respCmd("GET", k))
				}
				batch.Write(respCmd("SCAN", fmt.Sprintf("c%d", c), "10"))
				if _, err := nc.Write(batch.Bytes()); err != nil {
					errs <- err
					return
				}
				for i := 0; i < batchSize; i++ {
					if rep, err := ReadReply(br); err != nil || string(rep.Str) != "OK" {
						errs <- fmt.Errorf("client %d SET: %v %q", c, err, rep.Str)
						return
					}
					rep, err := ReadReply(br)
					if err != nil || rep.Null {
						errs <- fmt.Errorf("client %d GET: %v null=%v", c, err, rep.Null)
						return
					}
				}
				if rep, err := ReadReply(br); err != nil || rep.IsErr() {
					errs <- fmt.Errorf("client %d SCAN: %v %+v", c, err, rep)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	want := int64(clients * batches * batchSize)
	if got := srv.cmdCounts[opSet].Load(); got != want {
		t.Fatalf("cmd_set = %d, want %d", got, want)
	}
	if got := srv.cmdCounts[opGet].Load(); got != want {
		t.Fatalf("cmd_get = %d, want %d", got, want)
	}
	st := db.Stats()
	if st.Puts != want || st.Gets != want {
		t.Fatalf("engine stats puts=%d gets=%d, want %d", st.Puts, st.Gets, want)
	}
}

// TestGracefulShutdown checks Shutdown drains a live connection and that
// engine Close afterwards fails racing requests deterministically.
func TestGracefulShutdown(t *testing.T) {
	db := testEngine(t, 1)
	srv, err := New(Config{Engine: db})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	nc, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	br := bufio.NewReader(nc)
	if rep := roundTrip(t, nc, br, "SET", "k", "v"); string(rep.Str) != "OK" {
		t.Fatalf("SET → %q", rep.Str)
	}

	if err := srv.Shutdown(500 * time.Millisecond); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveErr; err != nil {
		t.Fatalf("Serve returned %v after Shutdown", err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Put([]byte("k"), []byte("v")); err != core.ErrClosed {
		t.Fatalf("Put after Close = %v, want ErrClosed", err)
	}

	// The drained connection is dead: either the write fails or the read
	// reports closure.
	nc.SetDeadline(time.Now().Add(2 * time.Second))
	nc.Write(respCmd("PING"))
	if _, err := ReadReply(br); err == nil {
		// One in-flight reply may drain; the connection must still die.
		if _, err := ReadReply(br); err == nil {
			t.Fatal("connection still alive after Shutdown")
		}
	}
}

// TestMSET drives the explicit batch-write command: values land, arity
// errors reject, and the counters tally pairs as sets (so a client's issued
// SET count balances INFO's cmd_set) with the command itself under cmd_mset.
func TestMSET(t *testing.T) {
	db := testEngine(t, 2)
	srv, dial := startServer(t, db)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	if rep := roundTrip(t, nc, br, "MSET", "m1", "v1", "m2", "v2", "m3", "v3"); string(rep.Str) != "OK" {
		t.Fatalf("MSET → %+v", rep)
	}
	for i := 1; i <= 3; i++ {
		k, v := fmt.Sprintf("m%d", i), fmt.Sprintf("v%d", i)
		if rep := roundTrip(t, nc, br, "GET", k); string(rep.Str) != v {
			t.Fatalf("GET %s → %q, want %q", k, rep.Str, v)
		}
	}
	if rep := roundTrip(t, nc, br, "MSET", "k"); !rep.IsErr() {
		t.Fatalf("MSET with no pairs → %+v, want error", rep)
	}
	if rep := roundTrip(t, nc, br, "MSET", "k", "v", "odd"); !rep.IsErr() {
		t.Fatalf("MSET with odd tail → %+v, want error", rep)
	}
	if got := srv.cmdCounts[opSet].Load(); got != 3 {
		t.Fatalf("cmd_set = %d, want 3 (one per pair)", got)
	}
	if got := srv.cmdCounts[opMSet].Load(); got != 1 {
		t.Fatalf("cmd_mset = %d, want 1", got)
	}
	if st := db.Stats(); st.Puts != 3 {
		t.Fatalf("engine puts = %d, want 3", st.Puts)
	}
}

// TestSetBatchFlush unit-drives the pipelined-write fast path's machinery:
// addSet must copy out of the (recycled) parse arena, flushSetBatch must
// apply every pair through one PutBatch and write one OK per SET, and the
// batch state must come back empty for reuse.
func TestSetBatchFlush(t *testing.T) {
	db := testEngine(t, 2)
	srv, err := New(Config{Engine: db})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	st := &connState{}
	// The reply buffer writes through the connection's sink, which folds
	// the buffered counts and latencies before the bytes leave.
	w := &writer{bw: bufio.NewWriter(replySink{srv, st, &out})}

	const n = 10
	arena := make([]byte, 0, 64) // stands in for the parser's recycled arena
	for i := 0; i < n; i++ {
		arena = arena[:0]
		arena = append(arena, []byte(fmt.Sprintf("bk%02d", i))...)
		arena = append(arena, []byte(fmt.Sprintf("bv%02d", i))...)
		st.addSet(arena[:4], arena[4:])
	}
	s := srv
	s.flushSetBatch(w, st)
	s.flushSetBatch(w, st) // idempotent on an empty batch
	if err := w.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if want := repeat("+OK\r\n", n); out.String() != want {
		t.Fatalf("replies = %q, want %d OKs", out.String(), n)
	}
	if len(st.bpairs) != 0 || len(st.barena) != 0 {
		t.Fatalf("batch not recycled: %d pairs, %d arena bytes", len(st.bpairs), len(st.barena))
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("bk%02d", i)
		v, tier, _, err := db.Get([]byte(k))
		if err != nil || tier == core.TierMiss {
			t.Fatalf("Get %s: %v tier=%v", k, err, tier)
		}
		if want := fmt.Sprintf("bv%02d", i); string(v) != want {
			t.Fatalf("Get %s = %q, want %q (arena aliasing?)", k, v, want)
		}
	}
	if got := s.cmdCounts[opSet].Load(); got != n {
		t.Fatalf("cmd_set = %d, want %d", got, n)
	}
	if s.opWall[opSet].Count() != n || s.opVirt[opSet].Count() != n {
		t.Fatalf("histogram counts = %d/%d, want %d", s.opWall[opSet].Count(), s.opVirt[opSet].Count(), n)
	}
}

// TestInfoWritesSection checks INFO surfaces the owner write path's
// telemetry.
func TestInfoWritesSection(t *testing.T) {
	db := testEngine(t, 1)
	_, dial := startServer(t, db)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	roundTrip(t, nc, br, "MSET", "wk1", "v", "wk2", "v")
	rep := roundTrip(t, nc, br, "INFO", "writes")
	for _, field := range []string{
		"# writes", "write_batches:", "write_batch_p50:", "write_batch_p99:",
		"write_queue_depth:", "producer_parks:", "view_republishes:",
	} {
		if !bytes.Contains(rep.Str, []byte(field)) {
			t.Fatalf("INFO writes missing %q:\n%s", field, rep.Str)
		}
	}
	var batches int64
	fmt.Sscanf(string(rep.Str[bytes.Index(rep.Str, []byte("write_batches:")):]), "write_batches:%d", &batches)
	if batches == 0 {
		t.Fatalf("write_batches = 0 after MSET:\n%s", rep.Str)
	}
}
