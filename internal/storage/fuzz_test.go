package storage

import (
	"bytes"
	"maps"
	"runtime"
	"testing"
)

// FuzzScanFrames fuzzes the frame codec WAL segments and the manifest journal
// share. Any input: scanFrames never panics, and a scan that succeeds
// accounts for every byte, its payloads re-encoding to exactly the bytes it
// consumed. Then the input is split into payloads and framed with
// appendFrame: the image scans back to those payloads; any truncation of it
// is a torn tail in a final file, torn counting the dangling bytes, and an
// error in any other file unless it ends on a frame boundary; and a flipped
// payload byte in a complete frame is an error in either.
func FuzzScanFrames(f *testing.F) {
	var img []byte
	for _, p := range []string{"\x01put user00000001 v1", "\x02del user00000001", "\x01" + string(bytes.Repeat([]byte("v"), 300))} {
		img = appendFrame(img, []byte(p))
	}
	f.Add(img, uint32(0), uint32(0))
	f.Add(img, uint32(len(img)-1), uint32(1<<24|5)) // torn payload
	f.Add(img[:len(img)-3], uint32(13), uint32(2))  // torn inside a header
	f.Add(appendFrame(nil, []byte{0}), uint32(4), uint32(0))
	f.Add(make([]byte, 64), uint32(9), uint32(0)) // zero fill
	f.Add([]byte{}, uint32(0), uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, cut, flip uint32) {
		for _, last := range []bool{false, true} {
			payloads, end, frames, torn, err := scanAll(data, last)
			if err != nil {
				continue
			}
			if end+torn != int64(len(data)) || frames != int64(len(payloads)) || !last && torn != 0 {
				t.Fatalf("last=%v: end %d + torn %d of %d bytes, %d frames for %d payloads", last, end, torn, len(data), frames, len(payloads))
			}
			if re := frame(payloads, nil); !bytes.Equal(re, data[:end]) {
				t.Fatalf("last=%v: %d payloads re-encode to %d bytes, not the %d scanned", last, len(payloads), len(re), end)
			}
		}

		// Frame the input's bytes as payloads of 1-61 bytes, each length
		// taken from the payload's first byte. bounds[i] is frame i's offset.
		var payloads [][]byte
		for rest := data; len(rest) > 0; {
			n := min(1+int(rest[0])%61, len(rest))
			payloads = append(payloads, rest[:n])
			rest = rest[n:]
		}
		bounds := []int{0}
		img := frame(payloads, &bounds)
		for _, last := range []bool{false, true} {
			got, end, _, torn, err := scanAll(img, last)
			if err != nil || end != int64(len(img)) || torn != 0 || !samePayloads(got, payloads) {
				t.Fatalf("last=%v: %d framed payloads scan back as %d, end %d of %d, torn %d: %v", last, len(payloads), len(got), end, len(img), torn, err)
			}
		}

		c := int(cut % uint32(len(img)+1))
		whole := 0
		for whole+1 < len(bounds) && bounds[whole+1] <= c {
			whole++
		}
		got, end, frames, torn, err := scanAll(img[:c], true)
		if err != nil || end != int64(bounds[whole]) || frames != int64(whole) || torn != int64(c-bounds[whole]) || !samePayloads(got, payloads[:whole]) {
			t.Fatalf("final file cut at %d of %d: end %d frames %d torn %d (%v), want end %d frames %d torn %d",
				c, len(img), end, frames, torn, err, bounds[whole], whole, c-bounds[whole])
		}
		if _, _, _, _, err := scanAll(img[:c], false); (err != nil) != (c != bounds[whole]) {
			t.Fatalf("non-final file cut at %d of %d (a frame ends at %d): err %v", c, len(img), bounds[whole], err)
		}

		if len(payloads) == 0 {
			return
		}
		i := int(flip % uint32(len(payloads)))
		j := int(flip/uint32(len(payloads))) % len(payloads[i])
		bad := append([]byte(nil), img...)
		bad[bounds[i]+frameHeaderLen+j] ^= byte(flip>>24) | 1
		for _, last := range []bool{false, true} {
			if _, _, _, _, err := scanAll(bad, last); err == nil {
				t.Fatalf("last=%v: byte %d of payload %d flipped, and the scan succeeded", last, j, i)
			}
		}
	})
}

// scanAll is scanFrames collecting copies of the payloads.
func scanAll(data []byte, last bool) (payloads [][]byte, end, frames, torn int64, err error) {
	end, frames, torn, err = scanFrames("fuzz", data, last, func(p []byte) error {
		payloads = append(payloads, append([]byte(nil), p...))
		return nil
	})
	return payloads, end, frames, torn, err
}

// frame encodes payloads with appendFrame, appending each frame's end offset
// to *bounds when bounds is not nil.
func frame(payloads [][]byte, bounds *[]int) []byte {
	var img []byte
	for _, p := range payloads {
		img = appendFrame(img, p)
		if bounds != nil {
			*bounds = append(*bounds, len(img))
		}
	}
	return img
}

func samePayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// FuzzApplyEdit hands the manifest journal's edit decoder arbitrary
// payloads. It must never panic, and it may allocate at most 64 B per
// payload byte plus 64 KiB (the fuzz worker's own allocations land in the
// same count), whatever counts the payload claims. A payload it
// accepts must be exactly what appendEdit writes for the edit it decoded, so
// no trailing byte and no overlong uvarint passes, and applying it must
// leave the partition's adds minus its removes live.
func FuzzApplyEdit(f *testing.F) {
	f.Add(appendEdit(nil, 0, []string{"p0-sst-000001.sst"}, nil))
	f.Add(appendEdit(nil, 3, []string{"a.sst", "b.sst", "a.sst"}, []string{"old.sst", "b.sst"}))
	f.Add(appendEdit(nil, 1<<20, nil, []string{""}))
	f.Add(appendEdit(nil, -1, nil, nil))
	corrupt := appendEdit(nil, 0, []string{"one-table-name.sst"}, nil)
	corrupt[3] = 0xff // the payload byte TestJournalCorruptEditFailsLoudly flips
	f.Add(corrupt)
	f.Add([]byte{50, 0, 0, 0, 1, 2})                  // TestJournalTornEditDropped's torn tail
	f.Add(append(appendEdit(nil, 0, nil, nil), 0))    // a trailing byte
	f.Add([]byte{0x80, 0x00, 0, 0})                   // an overlong partition
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0x0f, 0}) // a huge add count, one empty name

	f.Fuzz(func(t *testing.T, payload []byte) {
		j := &Journal{live: map[int]map[string]bool{}}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		err := j.applyEdit(payload)
		runtime.ReadMemStats(&ms)
		if got, limit := ms.TotalAlloc-before, uint64(64*len(payload)+64<<10); got > limit {
			t.Fatalf("applying %d bytes allocated %d B, over %d", len(payload), got, limit)
		}
		if err != nil {
			return
		}
		part, add, remove, err := decodeEdit(payload)
		if err != nil {
			t.Fatalf("applied, but decodeEdit refuses it: %v", err)
		}
		if re := appendEdit(nil, part, add, remove); !bytes.Equal(re, payload) {
			t.Fatalf("partition %d, %d adds, %d removes re-encode to %x, not %x", part, len(add), len(remove), re, payload)
		}
		want := map[string]bool{}
		for _, s := range add {
			want[s] = true
		}
		for _, s := range remove {
			delete(want, s)
		}
		if got := j.live[part]; len(j.live) != 1 || !maps.Equal(got, want) {
			t.Fatalf("live after the edit: %v, want partition %d: %v", j.live, part, want)
		}
	})
}
