package sst

import (
	"testing"

	"github.com/prismdb/prismdb/internal/simdev"
)

// FuzzOpen feeds Open arbitrary file images. Whatever the bytes, Open and
// every read of a table it accepts return errors rather than panic, and Open
// allocates no more than a few times the file's size. Run it beyond the seed
// corpus with `make fuzz-smoke`.
func FuzzOpen(f *testing.F) {
	dev, cache := testDev()
	recs := bigRecords(24)
	for i := range recs {
		recs[i].Value = recs[i].Value[:40+i*7] // several records a block, varied lengths
	}
	packed := finish(f, NewWriter(dev, cache, "packed", 256), recs)
	// An aligned table holding copied blocks beside re-encoded ones: four
	// blocks of three 1 KiB records, the odd ones copied.
	src := finish(f, NewAlignedWriter(dev, cache, "src", 0, 0), bigRecords(12))
	aw := NewAlignedWriter(dev, cache, "aligned", 0, 0)
	blocks, _ := blockRecords(f, src)
	for i, blk := range blocks {
		if i%2 == 1 {
			if err := aw.AppendBlock(src, i, nil, blk); err != nil {
				f.Fatal(err)
			}
			continue
		}
		for _, r := range blk {
			if err := aw.Add(r); err != nil {
				f.Fatal(err)
			}
		}
	}
	aligned, err := aw.Finish(nil)
	if err != nil || aw.Remapped() != 2*simdev.PageSize {
		f.Fatalf("seed table: %v, %d bytes remapped", err, aw.Remapped())
	}
	for _, tbl := range []*Table{packed, aligned} {
		b := fileBytes(f, tbl)
		f.Add(b)
		f.Add(b[:len(b)-1])          // torn footer
		f.Add(b[len(b)/2:])          // lost head
		f.Add(b[:tbl.DataBytes()/2]) // lost tail
		for _, off := range []int{3, int(tbl.DataBytes()) + 5, len(b) - footerLen + 9, len(b) - 30} {
			flipped := append([]byte(nil), b...)
			flipped[off] ^= 0x80
			f.Add(flipped)
		}
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		dev := simdev.New(simdev.QLCParams(1 << 30))
		tbl, grew, err := openImage(dev, nil, b)
		if grew > allocBound(b) {
			t.Fatalf("Open allocated %d bytes for a %d-byte file", grew, len(b))
		}
		if err != nil {
			return
		}
		// Accepted: every read either succeeds or reports an error.
		_ = tbl.ReadAll(nil, func(Record) error { return nil })
		for it := tbl.Iter(nil, nil, true); it.Valid(); it.Next() {
		}
		_, _, _ = tbl.Get(nil, tbl.Smallest())
		_, _, _ = tbl.Get(nil, tbl.Largest())
		for i := 0; i < tbl.NumBlocks(); i++ {
			_, _, _ = tbl.VerifyBlock(i, nil)
		}
	})
}
