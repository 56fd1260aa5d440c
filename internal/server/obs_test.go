package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"
)

// traceAllConfig returns a Config that samples every command, so SLOWLOG
// and TRACE tests are deterministic about WHAT gets traced (timings still
// vary; the tests assert ordering properties, not values).
func traceAllConfig(eng Engine) Config {
	return Config{Engine: eng, TraceSample: 1}
}

// startServerCfg is startServer with a caller-built Config.
func startServerCfg(t testing.TB, cfg Config) (*Server, func() net.Conn) {
	t.Helper()
	srv, err := New(cfg)
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

// TestSlowlogWire drives traced commands over the wire and checks the
// SLOWLOG contract: LEN counts retained entries, GET returns them slowest
// first with unique IDs, GET n truncates, and RESET empties the ring
// without stopping new samples.
func TestSlowlogWire(t *testing.T) {
	db := testEngine(t, 2)
	t.Cleanup(func() { db.Close() })
	_, dial := startServerCfg(t, traceAllConfig(db))
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	for i := 0; i < 20; i++ {
		k, v := fmt.Sprintf("sl%02d", i), fmt.Sprintf("v%02d", i)
		if rep := roundTrip(t, nc, br, "SET", k, v); string(rep.Str) != "OK" {
			t.Fatalf("SET → %+v", rep)
		}
		if rep := roundTrip(t, nc, br, "GET", k); string(rep.Str) != v {
			t.Fatalf("GET → %+v", rep)
		}
	}

	rep := roundTrip(t, nc, br, "SLOWLOG", "LEN")
	if rep.Int <= 0 {
		t.Fatalf("SLOWLOG LEN = %d after 40 traced commands, want > 0", rep.Int)
	}
	retained := rep.Int

	rep = roundTrip(t, nc, br, "SLOWLOG", "GET")
	if int64(len(rep.Elems)) != retained {
		t.Fatalf("SLOWLOG GET returned %d entries, LEN said %d", len(rep.Elems), retained)
	}
	seen := map[int64]bool{}
	prev := int64(-1)
	for i, e := range rep.Elems {
		if len(e.Elems) != 4 {
			t.Fatalf("entry %d has %d fields, want 4: %+v", i, len(e.Elems), e)
		}
		id, durUS := e.Elems[0].Int, e.Elems[2].Int
		if seen[id] {
			t.Fatalf("duplicate slowlog id %d", id)
		}
		seen[id] = true
		if prev >= 0 && durUS > prev {
			t.Fatalf("entry %d (%dµs) slower than entry %d (%dµs): not sorted", i, durUS, i-1, prev)
		}
		prev = durUS
		detail := e.Elems[3]
		if len(detail.Elems) != 4 {
			t.Fatalf("entry %d detail has %d fields, want 4", i, len(detail.Elems))
		}
		if op := string(detail.Elems[0].Str); op != "get" && op != "set" && op != "cmd" {
			t.Fatalf("entry %d op = %q", i, op)
		}
	}

	if rep = roundTrip(t, nc, br, "SLOWLOG", "GET", "3"); len(rep.Elems) > 3 {
		t.Fatalf("SLOWLOG GET 3 returned %d entries", len(rep.Elems))
	}
	if rep = roundTrip(t, nc, br, "SLOWLOG", "RESET"); string(rep.Str) != "OK" {
		t.Fatalf("SLOWLOG RESET → %+v", rep)
	}
	// The RESET command itself is traced, so LEN is 0 or 1 — never the old
	// population.
	if rep = roundTrip(t, nc, br, "SLOWLOG", "LEN"); rep.Int > 1 {
		t.Fatalf("SLOWLOG LEN = %d after RESET, want ≤ 1", rep.Int)
	}
	if rep = roundTrip(t, nc, br, "SLOWLOG", "NOPE"); !rep.IsErr() {
		t.Fatalf("bad subcommand → %+v, want error", rep)
	}
}

// TestTraceWire checks the TRACE debug command: bounded output, one line
// per recent span, each carrying the op and a total.
func TestTraceWire(t *testing.T) {
	db := testEngine(t, 1)
	t.Cleanup(func() { db.Close() })
	_, dial := startServerCfg(t, traceAllConfig(db))
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	roundTrip(t, nc, br, "SET", "tk", "tv")
	roundTrip(t, nc, br, "GET", "tk")
	rep := roundTrip(t, nc, br, "TRACE", "2")
	if len(rep.Elems) == 0 || len(rep.Elems) > 2 {
		t.Fatalf("TRACE 2 → %d lines", len(rep.Elems))
	}
	for _, e := range rep.Elems {
		line := string(e.Str)
		if !strings.HasPrefix(line, "#") || !strings.Contains(line, "total=") {
			t.Fatalf("TRACE line %q", line)
		}
	}
	if rep := roundTrip(t, nc, br, "TRACE", "0"); !rep.IsErr() {
		t.Fatalf("TRACE 0 → %+v, want error", rep)
	}
}

// TestInfoLatencyLiveConnections is the regression test for the INFO
// latency bug: per-connection histograms used to merge only at connection
// close, so a live connection's ops were invisible. The histograms are now
// server-global, and a connection folds its ops into them before every
// reply flush — INFO must reflect ops from a connection that is still open.
func TestInfoLatencyLiveConnections(t *testing.T) {
	db := testEngine(t, 1)
	t.Cleanup(func() { db.Close() })
	_, dial := startServer(t, db)
	nc := dial()
	defer nc.Close() // stays open for the whole test — that's the point
	br := bufio.NewReader(nc)

	for i := 0; i < 10; i++ {
		roundTrip(t, nc, br, "SET", fmt.Sprintf("lk%d", i), "v")
		roundTrip(t, nc, br, "GET", fmt.Sprintf("lk%d", i))
	}
	rep := roundTrip(t, nc, br, "INFO", "latency")
	body := string(rep.Str)
	if !strings.Contains(body, "get_count:10") {
		t.Fatalf("INFO latency on a LIVE connection missing get_count:10:\n%s", body)
	}
	if !strings.Contains(body, "set_count:10") {
		t.Fatalf("INFO latency on a LIVE connection missing set_count:10:\n%s", body)
	}
	if !strings.Contains(body, "get_wall_p50_us:") || !strings.Contains(body, "get_virt_p99_us:") {
		t.Fatalf("INFO latency missing quantile lines:\n%s", body)
	}
}

// TestTelemetryCountsRepliedOps: a connection buffers its command counts and
// latencies and folds them in before its replies leave and before INFO runs.
// So INFO counts the ops ahead of it in its own pipeline, and once a client
// has read its replies /metrics counts those ops too, with the connection
// still open and idle.
func TestTelemetryCountsRepliedOps(t *testing.T) {
	db := testEngine(t, 2)
	t.Cleanup(func() { db.Close() })
	srv, dial := startServer(t, db)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)

	var pipe bytes.Buffer
	for _, cmd := range [][]string{
		{"SET", "k0", "v"}, {"SET", "k1", "v"}, // batched, flushed ahead of GET
		{"GET", "k0"}, {"GET", "absent"}, {"MGET", "k0", "k1", "k2"}, {"PING"},
		{"INFO", "ops"}, {"GET", "k1"}, {"SET", "k2", "v"},
	} {
		pipe.Write(respCmd(cmd...))
	}
	if _, err := nc.Write(pipe.Bytes()); err != nil {
		t.Fatal(err)
	}
	var info Reply
	for i := 0; i < 9; i++ {
		rep, err := ReadReply(br)
		if err != nil {
			t.Fatal(err)
		}
		if i == 6 {
			info = rep
		}
	}
	for _, want := range []string{"cmd_get:2\r\n", "cmd_set:2\r\n", "cmd_mget:3\r\n", "cmd_other:2\r\n", "cmd_total:9\r\n"} {
		if !strings.Contains(string(info.Str), want) {
			t.Fatalf("INFO ops at the end of its pipeline lacks %q:\n%s", want, info.Str)
		}
	}

	g := srv.Registry().Gather()
	for name, want := range map[string]float64{
		`prism_server_cmds_total{op="get"}`:   3,
		`prism_server_cmds_total{op="set"}`:   3,
		`prism_server_cmds_total{op="mget"}`:  3,
		`prism_server_cmds_total{op="other"}`: 2,
	} {
		if p, ok := g.Find(name); !ok || p.Value != want {
			t.Errorf("/metrics %s = %v (found %v), want %v", name, p.Value, ok, want)
		}
	}
	for name, want := range map[string]int64{
		`prism_server_op_wall_latency_seconds{op="get"}`:     3,
		`prism_server_op_virtual_latency_seconds{op="set"}`:  3,
		`prism_server_op_virtual_latency_seconds{op="mget"}`: 3,
	} {
		if n := g.FindHist(name).Count(); n != want {
			t.Errorf("/metrics %s counts %d ops, want %d", name, n, want)
		}
	}
}

// TestInfoEventsSection: the events section surfaces the engine's
// structured event log through the shared EventLog.
func TestInfoEventsSection(t *testing.T) {
	db := testEngine(t, 1)
	t.Cleanup(func() { db.Close() })
	srv, dial := startServer(t, db)
	srv.events.Emit("test_event", "answer", 42)
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)
	rep := roundTrip(t, nc, br, "INFO", "events")
	body := string(rep.Str)
	if !strings.Contains(body, "# events") || !strings.Contains(body, "events_total:") {
		t.Fatalf("INFO events malformed:\n%s", body)
	}
	if !strings.Contains(body, `"type":"test_event"`) || !strings.Contains(body, `"answer":42`) {
		t.Fatalf("INFO events missing emitted event:\n%s", body)
	}
}

// TestServerRecordZeroAlloc pins the op loop's instrumented recording path
// at zero heap allocations per op: the connection's buffered observations and
// counts, their fold into the obs histograms and atomic counters, and the
// flush-size histogram must never allocate once warm.
func TestServerRecordZeroAlloc(t *testing.T) {
	db := testEngine(t, 1)
	t.Cleanup(func() { db.Close() })
	srv, err := New(Config{Engine: db})
	if err != nil {
		t.Fatal(err)
	}
	st := &connState{}
	if n := testing.AllocsPerRun(2000, func() {
		srv.record(st, opGet, time.Microsecond, 2*time.Microsecond)
		st.cmds[opGet]++
		srv.flushBytes.Observe(1024)
		srv.fold(st)
	}); n != 0 {
		t.Fatalf("instrumented record path allocates %.2f objects/op, want 0", n)
	}
}
