package server

import (
	"bufio"
	"testing"
)

// loopReader serves its stream over and over, so a parser reading it never
// runs dry and never allocates for fresh input.
type loopReader struct {
	data []byte
	off  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.off:])
	l.off = (l.off + n) % len(l.data)
	return n, nil
}

// TestReadCommandZeroAlloc pins the request decoder at zero allocations per
// command once its arena and argument slices are warm: a pipelined stream of
// GETs, SETs and MGETs, bulk strings and their terminators included.
func TestReadCommandZeroAlloc(t *testing.T) {
	var stream []byte
	stream = append(stream, respCmd("GET", "key:000042")...)
	stream = append(stream, respCmd("SET", "key:000042", "a value of some thirty bytes...")...)
	stream = append(stream, respCmd("MGET", "key:1", "key:2", "key:3", "key:4")...)
	r := newReader(bufio.NewReaderSize(&loopReader{data: stream}, 4096))
	if n := testing.AllocsPerRun(3000, func() {
		args, err := r.ReadCommand()
		if err != nil || len(args) < 2 {
			t.Fatalf("ReadCommand = %q, %v", args, err)
		}
	}); n != 0 {
		t.Fatalf("ReadCommand allocates %.2f objects per command, want 0", n)
	}
}
