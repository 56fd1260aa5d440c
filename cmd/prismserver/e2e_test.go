package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/server"
)

// These tests run the real prismserver binary as a subprocess on loopback
// and hold it to its served contract: INFO counts what clients issue, an
// acknowledged write survives kill -9, a storage fault degrades the server
// to read-only without a false ack, telemetry is served, and SIGTERM exits
// 0. TestMain builds the binary once.

var serverBin string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "prismserver-e2e")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	serverBin = filepath.Join(dir, "prismserver")
	code := 1
	if out, err := exec.Command("go", "build", "-o", serverBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build prismserver: %v\n%s", err, out)
	} else {
		code = m.Run()
	}
	os.RemoveAll(dir)
	os.Exit(code)
}

// proc is one prismserver process. log and waitErr are written by the
// goroutine that reads its output and are read once exited is closed.
type proc struct {
	cmd     *exec.Cmd
	addr    string // the RESP listener
	metrics string // the metrics listener, "" without -metrics-addr
	killed  atomic.Bool
	exited  chan struct{}
	log     strings.Builder
	waitErr error
}

// start runs prismserver on an ephemeral loopback port and waits for the
// log line that names it. The process is killed when the test ends, and its
// log is printed if the test failed.
func start(t *testing.T, args ...string) *proc {
	t.Helper()
	p := &proc{exited: make(chan struct{})}
	p.cmd = exec.Command(serverBin, append([]string{"-addr", "127.0.0.1:0", "-total", "256", "-quiet"}, args...)...)
	stderr, err := p.cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	listening := make(chan [2]string, 1)
	go func() {
		var metrics string
		for sc := bufio.NewScanner(stderr); sc.Scan(); {
			line := sc.Text()
			p.log.WriteString(line + "\n")
			if _, rest, ok := strings.Cut(line, "metrics on http://"); ok {
				metrics, _, _ = strings.Cut(rest, "/")
			}
			if _, rest, ok := strings.Cut(line, "prismserver listening on "); ok {
				addr, _, _ := strings.Cut(rest, " ")
				listening <- [2]string{addr, metrics}
			}
		}
		io.Copy(io.Discard, stderr)
		p.waitErr = p.cmd.Wait()
		close(p.exited)
	}()
	t.Cleanup(func() {
		p.cmd.Process.Kill()
		<-p.exited
		if t.Failed() {
			t.Logf("prismserver %v log:\n%s", args, p.log.String())
		}
	})
	select {
	case a := <-listening:
		p.addr, p.metrics = a[0], a[1]
	case <-p.exited:
		t.Fatalf("prismserver exited before listening: %v", p.waitErr)
	case <-time.After(20 * time.Second):
		t.Fatal("prismserver did not report its address in 20 s")
	}
	return p
}

// kill9 sends SIGKILL and waits for the process to be gone.
func (p *proc) kill9() {
	p.killed.Store(true)
	p.cmd.Process.Kill()
	<-p.exited
}

// stop sends SIGTERM and requires a graceful exit with status 0. Open
// client connections hold up the server's drain, so callers close theirs
// first.
func (p *proc) stop(t *testing.T) {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	if <-p.exited; p.waitErr != nil {
		t.Fatalf("prismserver exited after SIGTERM with %v", p.waitErr)
	}
}

// client is a pipelined RESP client: send buffers a command, bw.Flush puts
// the buffered pipeline on the wire, recv reads one reply.
type client struct {
	nc net.Conn
	bw *bufio.Writer
	br *bufio.Reader
}

func connect(addr string) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	nc.SetDeadline(time.Now().Add(60 * time.Second))
	return &client{nc: nc, bw: bufio.NewWriter(nc), br: bufio.NewReader(nc)}, nil
}

func dial(t *testing.T, addr string) *client {
	t.Helper()
	c, err := connect(addr)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func (c *client) send(args ...string) {
	c.bw.WriteString("*" + strconv.Itoa(len(args)) + "\r\n")
	for _, a := range args {
		c.bw.WriteString("$" + strconv.Itoa(len(a)) + "\r\n" + a + "\r\n")
	}
}

func (c *client) recv() (server.Reply, error) { return server.ReadReply(c.br) }

// do sends one command and returns its reply.
func (c *client) do(t *testing.T, args ...string) server.Reply {
	t.Helper()
	c.send(args...)
	err := c.bw.Flush()
	rep, rerr := c.recv()
	if err != nil || rerr != nil {
		t.Fatalf("%v: %v %v", args, err, rerr)
	}
	return rep
}

// health returns HEALTH's state, the value of its first field.
func (c *client) health(t *testing.T) string {
	if rep := c.do(t, "HEALTH"); len(rep.Elems) > 1 {
		return string(rep.Elems[1].Str)
	}
	return "(no state)"
}

func readOnly(rep server.Reply) bool { return strings.HasPrefix(string(rep.Str), "READONLY") }

var countedOps = [4]string{"cmd_get", "cmd_set", "cmd_del", "cmd_scan"}

// opCounts reads INFO's countedOps.
func opCounts(t *testing.T, c *client) (n [4]int64) {
	info := string(c.do(t, "INFO", "ops").Str)
	for i, op := range countedOps {
		if m := regexp.MustCompile(`(?m)^` + op + `:(\d+)`).FindStringSubmatch(info); m != nil {
			n[i], _ = strconv.ParseInt(m[1], 10, 64)
		}
	}
	return n
}

// TestServedCountsMatchINFO drives a pipelined mix of GET, SCAN, SET, MSET
// and DEL over four connections and requires INFO's cmd_* deltas to equal
// what was issued, each MSET pair counting as a set.
func TestServedCountsMatchINFO(t *testing.T) {
	p := start(t)
	ctl := dial(t, p.addr)
	before := opCounts(t, ctl)
	b := &burst{p: p, conns: 4, depth: 16, windows: 150, reads: 50, onReply: acked(t)}
	b.run(t)
	after := opCounts(t, ctl)
	for i, name := range countedOps {
		if d, n := after[i]-before[i], b.issued[i].Load(); d != n {
			t.Errorf("INFO %s grew by %d, issued %d", name, d, n)
		}
	}
	ctl.nc.Close()
	p.stop(t)
}

// TestRejectsSizingItWouldNotRun starts the server with an NVM share or a
// capacity that RecommendedConfig would replace with its own default. The
// server must exit with status 2 and name the flag, not serve a database
// other than the one its listen log reports.
func TestRejectsSizingItWouldNotRun(t *testing.T) {
	for _, args := range [][]string{
		{"-nvm", "1.5"}, {"-nvm", "1"}, {"-nvm", "0"}, {"-nvm", "-0.2"}, {"-nvm", "NaN"},
		{"-total", "0"}, {"-total", "-64"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		out, err := exec.CommandContext(ctx, serverBin, append([]string{"-addr", "127.0.0.1:0", "-quiet"}, args...)...).CombinedOutput()
		cancel()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 || !strings.Contains(string(out), args[0]) {
			t.Errorf("prismserver %v: %v, want exit status 2 naming %s; output:\n%s", args, err, args[0], out)
		}
	}
}

// fate is what a burst knows of a key it wrote: the value of the key's last
// acknowledged write ("" for absent), and the values of the writes sent
// after it whose outcome is unknown. Each key belongs to one connection, so
// its writes reach the server in the order they were sent.
type fate struct {
	acked   string
	pending []string
}

// outcome records the reply to one write of key with value val. An ack
// supersedes every earlier write of the key; a -READONLY refusal was never
// applied; any other error leaves the write's outcome unknown.
func (b *burst) outcome(key, val string, rep server.Reply) {
	b.mu.Lock()
	defer b.mu.Unlock()
	f := b.keys[key]
	i := slices.Index(f.pending, val)
	switch {
	case !rep.IsErr():
		f.acked, f.pending = val, f.pending[i+1:]
	case readOnly(rep):
		f.pending = append(f.pending[:i:i], f.pending[i+1:]...)
	}
}

// burst is load that run puts on p: conns connections each pipeline windows
// of depth commands over keys of their own, reads% of them GETs and SCANs
// and the rest SETs, MSETs and DELs. Every write is recorded in keys before
// it is sent and every write's reply as it arrives; a read must not fail.
// onReply sees each write's reply after the counts include it; once it
// returns false the connection stops at the end of its window. A
// connection that breaks after the process was killed ends quietly. run
// may be called again, with other settings, to extend the same history.
type burst struct {
	p        *proc
	conns    int
	depth    int
	windows  int // per connection
	reads    int
	seed     int64
	onReply  func(b *burst, conn int, rep server.Reply) bool
	issued   [4]atomic.Int64 // in countedOps order
	acks     atomic.Int64
	inflight atomic.Int64 // writes flushed to the wire and not yet answered
	seq      atomic.Int64 // makes every written value unique

	mu   sync.Mutex
	keys map[string]*fate
}

func (b *burst) run(t *testing.T) {
	if b.keys == nil {
		b.keys = map[string]*fate{}
	}
	var wg sync.WaitGroup
	for c := 0; c < b.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := b.conn(c); err != nil && !b.p.killed.Load() {
				t.Errorf("conn %d: %v", c, err)
			}
		}()
	}
	wg.Wait()
}

func (b *burst) conn(c int) error {
	cl, err := connect(b.p.addr)
	if err != nil {
		return err
	}
	defer cl.nc.Close()
	rng := rand.New(rand.NewSource(b.seed + int64(c)))
	key := func() string { return fmt.Sprintf("c%d-k%03d", c, rng.Intn(400)) }
	type write struct{ keys, vals []string } // a read's is empty
	for w := 0; w < b.windows; w++ {
		win, writes := make([]write, b.depth), 0
		b.mu.Lock()
		for i := range win {
			wr := &win[i]
			add := func(k, v string) {
				if b.keys[k] == nil {
					b.keys[k] = &fate{}
				}
				b.keys[k].pending = append(b.keys[k].pending, v)
				wr.keys, wr.vals = append(wr.keys, k), append(wr.vals, v)
			}
			switch r := rng.Intn(100); {
			case r < b.reads/2:
				cl.send("GET", key())
				b.issued[0].Add(1)
				continue
			case r < b.reads:
				cl.send("SCAN", key(), "10")
				b.issued[3].Add(1)
				continue
			case rng.Intn(4) == 0:
				add(key(), "")
				cl.send("DEL", wr.keys[0])
				b.issued[2].Add(1)
			default:
				n, args := 1, []string{"SET"}
				if rng.Intn(4) == 0 {
					n, args[0] = 2+rng.Intn(7), "MSET"
				}
				for j := 0; j < n; j++ {
					k := key()
					add(k, fmt.Sprintf("%s-%d-%s", k, b.seq.Add(1), strings.Repeat("v", 100)))
					args = append(args, k, wr.vals[j])
				}
				cl.send(args...)
				b.issued[1].Add(int64(n))
			}
			writes++
		}
		b.mu.Unlock()
		if err := cl.bw.Flush(); err != nil {
			return err
		}
		b.inflight.Add(int64(writes))
		more := true
		for _, wr := range win {
			rep, err := cl.recv()
			if err != nil {
				return err
			}
			if wr.keys == nil {
				if rep.IsErr() {
					return fmt.Errorf("read: %s", rep.Str)
				}
				continue
			}
			b.inflight.Add(-1)
			for i := range wr.keys {
				b.outcome(wr.keys[i], wr.vals[i], rep)
			}
			if !rep.IsErr() {
				b.acks.Add(1)
			}
			more = b.onReply(b, c, rep) && more
		}
		if !more {
			return nil
		}
	}
	return nil
}

// acked is a burst's onReply for a healthy server: every write is acked.
func acked(t *testing.T) func(*burst, int, server.Reply) bool {
	return func(b *burst, c int, rep server.Reply) bool {
		if rep.IsErr() {
			t.Errorf("conn %d: %s", c, rep.Str)
		}
		return !rep.IsErr()
	}
}

// verify GETs every key b wrote and requires the value of its last
// acknowledged write or of a write whose outcome is unknown. It returns
// what it read.
func verify(t *testing.T, addr string, b *burst) map[string]string {
	t.Helper()
	c := dial(t, addr)
	defer c.nc.Close()
	keys := make([]string, 0, len(b.keys))
	for k := range b.keys {
		keys = append(keys, k)
	}
	got, unknown := make(map[string]string, len(keys)), 0
	for i, k := range keys {
		if i%256 == 0 { // send the next window of GETs
			for _, k := range keys[i:min(i+256, len(keys))] {
				c.send("GET", k)
			}
			if err := c.bw.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := c.recv()
		if err != nil || rep.IsErr() {
			t.Fatalf("GET %s: %+v, %v", k, rep, err)
		}
		v, f := string(rep.Str), b.keys[k]
		got[k] = v
		if v != f.acked {
			unknown++
			if !slices.Contains(f.pending, v) {
				t.Errorf("GET %s = %.40q; last acked write %.40q, %d of unknown outcome", k, v, f.acked, len(f.pending))
			}
		}
	}
	t.Logf("verified %d keys, %d holding a write of unknown outcome", len(keys), unknown)
	return got
}

// TestCrashKeepsAckedWrites kill -9s a durable server while writes are in
// flight, after a randomly drawn number of acks, and requires every
// acknowledged SET, MSET pair and DEL to hold after a restart. The long
// variant kills and recovers once more and requires the same state.
func TestCrashKeepsAckedWrites(t *testing.T) {
	args := []string{"-data-dir", t.TempDir(), "-wal-sync", "sync"}
	p := start(t, args...)
	seed := time.Now().UnixNano()
	killAt := 300 + rand.New(rand.NewSource(seed)).Int63n(3000)
	t.Logf("seed %d: kill -9 at the first ack from write %d on with writes in flight", seed, killAt)

	var once sync.Once
	b := &burst{p: p, conns: 4, depth: 16, windows: 1 << 20, seed: seed}
	healthy := acked(t)
	b.onReply = func(b *burst, c int, rep server.Reply) bool {
		if n, in := b.acks.Load(), b.inflight.Load(); n >= killAt && in > 0 {
			once.Do(func() {
				t.Logf("kill -9 after %d acked writes, %d in flight", n, in)
				p.kill9()
			})
		}
		return healthy(b, c, rep)
	}
	b.run(t)
	if !p.killed.Load() {
		t.Fatal("the burst ended without the kill")
	}

	p = start(t, args...)
	state := verify(t, p.addr, b)
	if !testing.Short() {
		p.kill9()
		p = start(t, args...)
		for k, v := range verify(t, p.addr, b) {
			if state[k] != v {
				t.Errorf("GET %s changed across a second recovery: %.40q, then %.40q", k, state[k], v)
			}
		}
	}
	p.stop(t)
}

// TestChaosDegradesToReadOnly arms a WAL fault over the wire that fires in
// the middle of a write burst. The server must degrade: every later write
// is refused with -READONLY and no connection sees an ack after its first
// refusal, while PING, HEALTH and reads keep serving on a live process.
// After kill -9 and a restart it is healthy and writable, and every
// acknowledged write holds.
func TestChaosDegradesToReadOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("long variant")
	}
	args := []string{"-data-dir", t.TempDir(), "-wal-sync", "sync", "-chaos-debug"}
	p := start(t, args...)
	b := &burst{p: p, conns: 2, depth: 8, windows: 100, seed: 1, onReply: acked(t)}
	b.run(t)
	ctl := dial(t, p.addr)
	if s := ctl.health(t); s != "healthy" {
		t.Fatalf("HEALTH after the baseline burst: %s", s)
	}

	// The 200th WAL I/O from now fails. Each connection writes until it has
	// seen a refusal.
	if rep := ctl.do(t, "DEBUG", "FAULT", "wal", "200", "error"); string(rep.Str) != "OK" {
		t.Fatalf("DEBUG FAULT: %+v", rep)
	}
	var refused [2]bool
	base := b.acks.Load()
	b.windows, b.seed = 5000, 2
	b.onReply = func(b *burst, c int, rep server.Reply) bool {
		switch {
		case readOnly(rep):
			refused[c] = true
		case !rep.IsErr() && refused[c]:
			t.Errorf("conn %d: write acknowledged after a -READONLY refusal", c)
		}
		return !refused[c]
	}
	b.run(t)
	t.Logf("%d writes acked between arming the fault and the refusals", b.acks.Load()-base)
	if !refused[0] || !refused[1] {
		t.Fatalf("a connection never saw -READONLY: %v", refused)
	}

	// A connection that has not written yet is refused too, and the process
	// keeps serving everything else.
	for _, w := range [][]string{{"SET", "chaos-probe", "1"}, {"MSET", "c0-k000", "1", "chaos-probe", "2"}, {"DEL", "c1-k000"}} {
		if rep := ctl.do(t, w...); !readOnly(rep) {
			t.Fatalf("%s while degraded: %+v", w[0], rep)
		}
	}
	if rep := ctl.do(t, "PING"); string(rep.Str) != "PONG" {
		t.Fatalf("PING while degraded: %+v", rep)
	}
	if s := ctl.health(t); s != "degraded" {
		t.Fatalf("HEALTH after the fault: %s", s)
	}
	verify(t, p.addr, b)
	ctl.nc.Close()

	p.kill9()
	p = start(t, args...)
	verify(t, p.addr, b)
	ctl = dial(t, p.addr)
	if s := ctl.health(t); s != "healthy" {
		t.Fatalf("HEALTH after restart: %s", s)
	}
	if rep := ctl.do(t, "SET", "chaos-probe", "1"); string(rep.Str) != "OK" {
		t.Fatalf("SET after restart: %+v", rep)
	}
	ctl.nc.Close()
	p.stop(t)
}

// TestMetricsEndpoints scrapes a durable server's /metrics after a
// write-heavy burst: the key series exist, the load-bearing histograms
// observed the burst, and /events and /debug/pprof/ are served.
func TestMetricsEndpoints(t *testing.T) {
	p := start(t, "-data-dir", t.TempDir(), "-metrics-addr", "127.0.0.1:0")
	(&burst{p: p, conns: 2, depth: 16, windows: 40, onReply: acked(t)}).run(t)

	get := func(path string) string {
		resp, err := http.Get("http://" + p.metrics + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %s, %v", path, resp.Status, err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, s := range []string{
		"prism_server_op_virtual_latency_seconds", "prism_server_cmds_total", "prism_engine_ops_total", "prism_write_queue_depth",
	} {
		if !regexp.MustCompile(`(?m)^` + s).MatchString(metrics) {
			t.Errorf("/metrics has no series %s", s)
		}
	}
	for _, s := range []string{ // histograms that must have observed the burst
		"prism_server_op_wall_latency_seconds", "prism_server_reply_flush_bytes",
		"prism_write_batch_ops", "prism_wal_fsync_seconds", "prism_wal_group_commit_records",
	} {
		if !regexp.MustCompile(`(?m)^` + s + `_count(\{.*\})? [1-9]`).MatchString(metrics) {
			t.Errorf("histogram %s missing or empty", s)
		}
	}
	if ev := get("/events"); !strings.Contains(ev, `"type":`) {
		t.Errorf("/events carries no JSON events:\n%s", ev)
	}
	get("/debug/pprof/")
	p.stop(t)
}
