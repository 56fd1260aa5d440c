package server

import (
	"bufio"
	"bytes"
	"io"
	"runtime"
	"slices"
	"testing"
)

// FuzzReadCommand hands the request decoder arbitrary byte streams and
// reads commands until the first error. It must never panic. While decoding
// it may allocate at most 32 B per input byte (an inline argument of two
// bytes costs two slice headers as the argument slices grow) plus 60 KiB, so
// a header announcing a MaxBulkLen payload that never arrives, a seed, stays
// under 64 KiB. Every command it accepts, encoded again as a RESP array, must
// decode to the same arguments and nothing else.
func FuzzReadCommand(f *testing.F) {
	for _, tc := range malformedRESP {
		f.Add([]byte(tc.input))
	}
	f.Add(append(respCmd("SET", "k", "v"), respCmd("MSET", "a", "1", "b", "")...))
	f.Add([]byte("PING\r\nGET k\n\r\n*0\r\n*1\r\n$4\r\nINFO\r\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		r := newReader(bufio.NewReader(bytes.NewReader(data)))
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		for {
			if _, err := r.ReadCommand(); err != nil {
				break
			}
		}
		runtime.ReadMemStats(&ms)
		if got, limit := ms.TotalAlloc-before, uint64(32*len(data)+60<<10); got > limit {
			t.Fatalf("decoding %d bytes allocated %d B, over %d", len(data), got, limit)
		}

		r = newReader(bufio.NewReader(bytes.NewReader(data)))
		for {
			args, err := r.ReadCommand()
			if err != nil {
				break
			}
			if args == nil {
				continue
			}
			strs := make([]string, len(args))
			for i, a := range args {
				strs[i] = string(a)
			}
			again := newReader(bufio.NewReader(bytes.NewReader(respCmd(strs...))))
			got, err := again.ReadCommand()
			if err != nil || !slices.EqualFunc(got, strs, func(g []byte, s string) bool { return string(g) == s }) {
				t.Fatalf("%q re-encoded decodes as %q, %v", strs, got, err)
			}
			if _, err := again.ReadCommand(); err != io.EOF {
				t.Fatalf("%q re-encoded leaves %v after one command, want EOF", strs, err)
			}
		}
	})
}
