package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"time"

	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/workload"
)

// op is one generated request: a GET or a SET of key index idx.
type op struct {
	idx int
	set bool
}

// opStream draws one connection's requests. Key choice and op mix both
// come from the seed; the zipfian sampler itself is immutable and shared.
type opStream struct {
	rng     *rand.Rand
	zipf    *workload.Zipfian
	setFrac float64
}

func newOpStream(s spec, zipf *workload.Zipfian, seed int64, conn int) *opStream {
	return &opStream{
		rng:     rand.New(rand.NewSource(seed*1000003 + int64(conn))),
		zipf:    zipf,
		setFrac: s.setFrac,
	}
}

func (o *opStream) next() op {
	set := o.setFrac > 0 && o.rng.Float64() < o.setFrac
	return op{idx: o.zipf.Next(o.rng), set: set}
}

// appendGet and appendSet encode RESP2 requests.
func appendGet(dst []byte, idx int) []byte {
	dst = append(dst, "*2\r\n$3\r\nGET\r\n$16\r\n"...)
	dst = appendKey(dst, idx)
	return append(dst, '\r', '\n')
}

func appendSet(dst []byte, idx int, writer byte, seq uint32) []byte {
	dst = append(dst, "*3\r\n$3\r\nSET\r\n$16\r\n"...)
	dst = appendKey(dst, idx)
	dst = append(dst, "\r\n$"...)
	dst = strconv.AppendInt(dst, valueSize, 10)
	dst = append(dst, '\r', '\n')
	dst = appendValue(dst, idx, writer, seq)
	return append(dst, '\r', '\n')
}

// pending is a request on the wire awaiting its reply. minSeq is the
// sequence number of this connection's latest SET of the key sent before
// it: the server executes a connection's commands in order, so a GET must
// observe at least that write.
type pending struct {
	idx    int
	set    bool
	minSeq uint32
}

// client is one closed-loop connection: it sends pipeDepth requests, reads
// and verifies pipeDepth replies, and repeats.
type client struct {
	id     byte
	nc     net.Conn
	br     *bufio.Reader
	stream *opStream

	wbuf     []byte
	inflight [pipeDepth]pending
	discard  int      // reply payload bytes still to drop from br
	sent     []uint32 // per key: seq of this connection's latest SET on the wire
	scratch  []byte
	gets     int64

	attempted, failed int64
	firstFailure      string

	// lenient checks only a reply's shape: set when the server's engine is
	// the no-op one, whose values carry no header.
	lenient bool

	log   *spanLog  // nil when tracing is off
	names [3]string // span names: whole batch, encode, round trip
}

func dialClient(addr string, id int, s spec, zipf *workload.Zipfian, seed int64) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial: %w", err)
	}
	c := &client{
		id:     byte(id),
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 64<<10),
		stream: newOpStream(s, zipf, seed, id),
		wbuf:   make([]byte, 0, pipeDepth*(valueSize+64)),
		names:  [3]string{"client.batch", "client.encode", "client.rtt"},
	}
	if s.setFrac > 0 {
		c.sent = make([]uint32, s.keys)
	}
	return c, nil
}

func (c *client) fail(format string, args ...interface{}) {
	c.failed++
	if c.firstFailure == "" {
		c.firstFailure = fmt.Sprintf(format, args...)
	}
}

// run executes batches pipelined batches. An I/O or framing error aborts
// the run; a wrong reply is counted as a failed op and the run goes on.
func (c *client) run(batches int) error {
	for b := 0; b < batches; b++ {
		var t0, t1 int64
		if c.log != nil {
			t0 = c.log.now()
		}
		c.wbuf = c.wbuf[:0]
		for i := range c.inflight {
			o := c.stream.next()
			p := pending{idx: o.idx, set: o.set}
			if o.set {
				c.sent[o.idx]++
				c.wbuf = appendSet(c.wbuf, o.idx, c.id, c.sent[o.idx])
			} else {
				if c.sent != nil {
					p.minSeq = c.sent[o.idx]
				}
				c.wbuf = appendGet(c.wbuf, o.idx)
			}
			c.inflight[i] = p
		}
		if c.log != nil {
			t1 = c.log.now()
		}
		if _, err := c.nc.Write(c.wbuf); err != nil {
			return fmt.Errorf("conn %d: write: %w", c.id, err)
		}
		// The round trip ends when the first reply byte is readable; the
		// rest of the batch span is reply parsing and verification.
		var t2 int64
		for i := range c.inflight {
			kind, payload, err := c.readReply()
			if err != nil {
				return fmt.Errorf("conn %d: read: %w", c.id, err)
			}
			if i == 0 && c.log != nil {
				t2 = c.log.now()
			}
			c.attempted++
			c.check(c.inflight[i], kind, payload)
		}
		if c.log != nil {
			req := int32(b)
			parent := c.log.add(c.names[0], t0, c.log.now(), -1, req)
			c.log.add(c.names[1], t0, t1, parent, req)
			c.log.add(c.names[2], t1, t2, parent, req)
		}
	}
	return nil
}

// readReply parses one RESP2 reply without allocating. For a bulk reply the
// payload aliases the read buffer and is valid until the next call; a null
// bulk has kind '$' and a nil payload.
func (c *client) readReply() (kind byte, payload []byte, err error) {
	if c.discard > 0 {
		if _, err := c.br.Discard(c.discard); err != nil {
			return 0, nil, err
		}
		c.discard = 0
	}
	line, err := c.br.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 4 || line[len(line)-2] != '\r' {
		return 0, nil, fmt.Errorf("malformed reply line %q", line)
	}
	kind, body := line[0], line[1:len(line)-2]
	switch kind {
	case '+', '-', ':':
		return kind, body, nil
	case '$':
		if body[0] == '-' {
			return kind, nil, nil
		}
		n := 0
		for _, d := range body {
			if d < '0' || d > '9' || n > server.MaxBulkLen {
				return 0, nil, fmt.Errorf("malformed bulk length %q", body)
			}
			n = n*10 + int(d-'0')
		}
		buf, err := c.br.Peek(n + 2)
		if err != nil {
			return 0, nil, err
		}
		c.discard = n + 2
		return kind, buf[:n], nil
	}
	return 0, nil, fmt.Errorf("unexpected reply type %q", kind)
}

// check verifies one reply against the request that caused it.
func (c *client) check(p pending, kind byte, payload []byte) {
	if p.set {
		if kind != '+' || string(payload) != "OK" {
			c.fail("SET key %d: reply %q %q", p.idx, kind, payload)
		}
		return
	}
	if kind != '$' || payload == nil {
		c.fail("GET key %d: reply %q %q", p.idx, kind, payload)
		return
	}
	if c.lenient {
		if len(payload) != valueSize {
			c.fail("GET key %d: %d-byte value", p.idx, len(payload))
		}
		return
	}
	info, ok := parseValue(payload)
	switch {
	case !ok:
		c.fail("GET key %d: value of %d bytes with a bad header", p.idx, len(payload))
	case info.idx != p.idx:
		c.fail("GET key %d: value belongs to key %d", p.idx, info.idx)
	case info.writer == c.id && info.seq < p.minSeq:
		c.fail("GET key %d: own write seq %d older than acknowledged %d", p.idx, info.seq, p.minSeq)
	case info.writer == preloadWriter && (info.seq != 0 || p.minSeq > 0):
		c.fail("GET key %d: preloaded value after own write seq %d", p.idx, p.minSeq)
	case info.writer != preloadWriter && int(info.writer) >= numConns:
		c.fail("GET key %d: unknown writer %d", p.idx, info.writer)
	default:
		c.gets++
		if c.gets&63 == 0 && !valueIntact(payload, info, &c.scratch) {
			c.fail("GET key %d: value bytes differ from what writer %d seq %d wrote", p.idx, info.writer, info.seq)
		}
	}
}

// runClients drives every client through batches pipelined batches
// concurrently and returns the wall time from the first send to the last
// reply.
func runClients(clients []*client, batches int) (time.Duration, error) {
	return runAll(clients, func(c *client) error { return c.run(batches) })
}

// runAll runs fn for every client on its own goroutine and returns the
// wall time until the last one finished, and the first error.
func runAll(clients []*client, fn func(*client) error) (time.Duration, error) {
	errs := make(chan error, len(clients))
	start := time.Now()
	for _, c := range clients {
		go func(c *client) { errs <- fn(c) }(c)
	}
	var first error
	for range clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return time.Since(start), first
}
