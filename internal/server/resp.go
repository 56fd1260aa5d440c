package server

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// Wire-format limits. A request that exceeds them is a protocol error: the
// connection gets one -ERR reply and is closed, so a malformed or hostile
// client cannot make the server allocate unboundedly.
const (
	// MaxArgs bounds the argument count of one command (MGET is the widest
	// legitimate user).
	MaxArgs = 1024
	// MaxBulkLen bounds one bulk string (key or value).
	MaxBulkLen = 8 << 20
	// maxInlineLen bounds an inline (non-RESP) command line.
	maxInlineLen = 64 << 10
	// bulkChunk is how far ahead of the received payload one bulk string's
	// arena space is reserved.
	bulkChunk = 32 << 10
)

// ProtocolError is a malformed-input error. The server replies -ERR with
// the message and closes the connection, like Redis; every other error kind
// (I/O, engine) is handled by its site.
type ProtocolError string

// Error implements error.
func (e ProtocolError) Error() string { return "protocol error: " + string(e) }

// reader parses RESP2 commands — arrays of bulk strings, with the inline
// fallback — from a buffered connection. Argument bytes live in a
// per-reader arena recycled across commands, so steady-state parsing of a
// pipelined stream performs no per-command allocations; the returned
// [][]byte views are valid until the next ReadCommand.
type reader struct {
	br    *bufio.Reader
	args  [][]byte
	arena []byte
	offs  []int   // arg boundaries within arena (len == #args + 1)
	crlf  [2]byte // a bulk string's terminator; a local would escape to the heap
}

func newReader(br *bufio.Reader) *reader {
	return &reader{br: br}
}

// readLine returns one line without its terminator. RESP mandates \r\n; a
// bare \n is tolerated on inline commands the way Redis tolerates it. The
// returned slice views the bufio buffer — valid only until the next read.
func (r *reader) readLine() ([]byte, error) {
	line, err := r.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		return nil, ProtocolError("line too long")
	}
	if err != nil {
		return nil, err // io.EOF or a transport error: nothing to reply to
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// parseLen parses a non-negative decimal ([]byte to avoid a string alloc on
// the hot path). Returns -1 on anything else, including empty input and
// overflow.
func parseLen(b []byte) int {
	if len(b) == 0 || len(b) > 10 {
		return -1
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return -1
		}
		n = n*10 + int(c-'0')
	}
	return n
}

// ReadCommand parses the next command. It returns a nil slice with a nil
// error for no-op input (an empty inline line, an empty array), which the
// caller skips. A ProtocolError means the stream is unrecoverable: reply
// once and close. Other errors are transport-level (EOF, reset).
func (r *reader) ReadCommand() ([][]byte, error) {
	r.args = r.args[:0]
	r.arena = r.arena[:0]
	r.offs = r.offs[:0]

	line, err := r.readLine()
	if err != nil {
		return nil, err
	}
	if len(line) == 0 {
		return nil, nil
	}
	if line[0] != '*' {
		return r.parseInline(line)
	}
	n := parseLen(line[1:])
	if n < 0 || n > MaxArgs {
		return nil, ProtocolError("invalid multibulk length")
	}
	if n == 0 {
		return nil, nil
	}
	r.offs = append(r.offs, 0)
	for i := 0; i < n; i++ {
		hdr, err := r.readLine()
		if err != nil {
			return nil, unexpected(err)
		}
		if len(hdr) == 0 || hdr[0] != '$' {
			return nil, ProtocolError("expected bulk string ('$')")
		}
		blen := parseLen(hdr[1:])
		if blen < 0 || blen > MaxBulkLen {
			return nil, ProtocolError("invalid bulk length")
		}
		// The arena grows as payload bytes arrive, a chunk at a time, so a
		// header that announces a large bulk costs memory only for the
		// bytes the peer actually sends.
		for left := blen; left > 0; {
			step := min(left, bulkChunk)
			off := len(r.arena)
			if cap(r.arena)-off < step {
				r.arena = append(make([]byte, 0, 2*cap(r.arena)+step), r.arena...)
			}
			r.arena = r.arena[:off+step]
			if _, err := io.ReadFull(r.br, r.arena[off:]); err != nil {
				return nil, unexpected(err)
			}
			left -= step
		}
		if _, err := io.ReadFull(r.br, r.crlf[:]); err != nil {
			return nil, unexpected(err)
		}
		if r.crlf[0] != '\r' || r.crlf[1] != '\n' {
			return nil, ProtocolError("bulk string missing CRLF terminator")
		}
		r.offs = append(r.offs, len(r.arena))
	}
	return r.sliceArgs(), nil
}

// parseInline splits a plain-text command line on spaces/tabs (the telnet
// convenience path; no quoting).
func (r *reader) parseInline(line []byte) ([][]byte, error) {
	if len(line) > maxInlineLen {
		return nil, ProtocolError("inline command too long")
	}
	r.offs = append(r.offs, 0)
	i := 0
	for i < len(line) {
		for i < len(line) && (line[i] == ' ' || line[i] == '\t') {
			i++
		}
		if i >= len(line) {
			break
		}
		start := i
		for i < len(line) && line[i] != ' ' && line[i] != '\t' {
			i++
		}
		if len(r.offs)-1 >= MaxArgs {
			return nil, ProtocolError("too many inline arguments")
		}
		r.arena = append(r.arena, line[start:i]...)
		r.offs = append(r.offs, len(r.arena))
	}
	if len(r.offs) == 1 {
		return nil, nil
	}
	return r.sliceArgs(), nil
}

// sliceArgs materializes the arg views over the (now final-sized) arena.
func (r *reader) sliceArgs() [][]byte {
	for i := 0; i+1 < len(r.offs); i++ {
		r.args = append(r.args, r.arena[r.offs[i]:r.offs[i+1]])
	}
	return r.args
}

// unexpected maps a clean EOF in the middle of a command to a protocol
// error (truncated input), leaving transport errors untouched.
func unexpected(err error) error {
	if err == io.EOF || err == io.ErrUnexpectedEOF {
		return ProtocolError("truncated command")
	}
	return err
}

// writer emits RESP2 replies into a buffered writer. Integer formatting
// goes through a small scratch buffer, so the reply path allocates nothing.
type writer struct {
	bw      *bufio.Writer
	scratch [24]byte
}

func (w *writer) simple(s string) {
	w.bw.WriteByte('+')
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

func (w *writer) err(msg string) {
	w.bw.WriteByte('-')
	w.bw.WriteString(msg)
	w.bw.WriteString("\r\n")
}

func (w *writer) integer(n int64) {
	w.bw.WriteByte(':')
	w.writeInt(n)
	w.bw.WriteString("\r\n")
}

func (w *writer) bulk(b []byte) {
	w.bw.WriteByte('$')
	w.writeInt(int64(len(b)))
	w.bw.WriteString("\r\n")
	w.bw.Write(b)
	w.bw.WriteString("\r\n")
}

func (w *writer) bulkString(s string) {
	w.bw.WriteByte('$')
	w.writeInt(int64(len(s)))
	w.bw.WriteString("\r\n")
	w.bw.WriteString(s)
	w.bw.WriteString("\r\n")
}

// null is the RESP2 null bulk string ($-1), the "no such key" reply.
func (w *writer) null() { w.bw.WriteString("$-1\r\n") }

// appendBulk appends one encoded RESP bulk string to dst (for replies
// staged in a scratch buffer before their array header is known, e.g.
// SCAN's streamed pairs).
func appendBulk(dst, b []byte) []byte {
	dst = append(dst, '$')
	dst = strconv.AppendInt(dst, int64(len(b)), 10)
	dst = append(dst, '\r', '\n')
	dst = append(dst, b...)
	return append(dst, '\r', '\n')
}

func (w *writer) array(n int) {
	w.bw.WriteByte('*')
	w.writeInt(int64(n))
	w.bw.WriteString("\r\n")
}

func (w *writer) writeInt(n int64) {
	if n < 0 {
		w.bw.WriteByte('-')
		n = -n
	}
	i := len(w.scratch)
	for {
		i--
		w.scratch[i] = byte('0' + n%10)
		n /= 10
		if n == 0 {
			break
		}
	}
	w.bw.Write(w.scratch[i:])
}

// Reply is one parsed RESP2 reply, for client-side use (the load generator
// and the wire tests). Kind is the RESP type byte: '+', '-', ':', '$', '*'.
type Reply struct {
	Kind  byte
	Str   []byte  // simple string, error message, or bulk payload
	Null  bool    // null bulk ($-1) or null array (*-1)
	Int   int64   // ':' payload
	Elems []Reply // '*' payload
}

// IsErr reports whether the reply is a RESP error.
func (r Reply) IsErr() bool { return r.Kind == '-' }

// ReadReply parses one reply from br. Client-side only — the hot server
// path never builds Reply trees.
func ReadReply(br *bufio.Reader) (Reply, error) {
	line, err := readClientLine(br)
	if err != nil {
		return Reply{}, err
	}
	if len(line) == 0 {
		return Reply{}, ProtocolError("empty reply line")
	}
	rep := Reply{Kind: line[0]}
	body := line[1:]
	switch rep.Kind {
	case '+', '-':
		rep.Str = append([]byte(nil), body...)
	case ':':
		neg := false
		if len(body) > 0 && body[0] == '-' {
			neg, body = true, body[1:]
		}
		n := parseLen(body)
		if n < 0 {
			return Reply{}, ProtocolError("invalid integer reply")
		}
		rep.Int = int64(n)
		if neg {
			rep.Int = -rep.Int
		}
	case '$':
		if len(body) > 0 && body[0] == '-' {
			rep.Null = true
			return rep, nil
		}
		blen := parseLen(body)
		if blen < 0 || blen > MaxBulkLen {
			return Reply{}, ProtocolError("invalid bulk reply length")
		}
		rep.Str = make([]byte, blen)
		if _, err := io.ReadFull(br, rep.Str); err != nil {
			return Reply{}, err
		}
		var crlf [2]byte
		if _, err := io.ReadFull(br, crlf[:]); err != nil {
			return Reply{}, err
		}
	case '*':
		if len(body) > 0 && body[0] == '-' {
			rep.Null = true
			return rep, nil
		}
		n := parseLen(body)
		if n < 0 {
			return Reply{}, ProtocolError("invalid array reply length")
		}
		rep.Elems = make([]Reply, 0, n)
		for i := 0; i < n; i++ {
			e, err := ReadReply(br)
			if err != nil {
				return Reply{}, err
			}
			rep.Elems = append(rep.Elems, e)
		}
	default:
		return Reply{}, ProtocolError(fmt.Sprintf("unknown reply type %q", rep.Kind))
	}
	return rep, nil
}

func readClientLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadBytes('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}
