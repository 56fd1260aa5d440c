package btree

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// modelKeys is the key pool of the model tests: 512 keys of 0-24 bytes that
// reach every case of a search that compares two leading words first:
// prefix pairs such as "a" < "a\x00", runs of 0x00 and 0xFF bytes, and keys
// that tie in their first 16 bytes and differ after them.
var modelKeys = func() [][]byte {
	seen := map[string]bool{}
	var keys [][]byte
	add := func(k []byte) {
		if len(k) <= 24 && !seen[string(k)] {
			seen[string(k)] = true
			keys = append(keys, k)
		}
	}
	for n := 0; n <= 24; n++ {
		for _, b := range []byte{0x00, 'a', 0xFF} {
			add(bytes.Repeat([]byte{b}, n))
			add(append([]byte("a"), bytes.Repeat([]byte{b}, n)...))
		}
	}
	tie := []byte("user000000001234")
	for _, tail := range []string{"", "\x00", "\x00\x00", "\x01", "a", "ab", "\xff", "\xff\x00", "zzzzzzzz"} {
		add(append(append([]byte(nil), tie...), tail...))
		add(append(append([]byte(nil), tie[:15]...), tail...))
	}
	rng := rand.New(rand.NewSource(1))
	alphabet := []byte{0x00, 0x01, 'a', 'b', 0x7F, 0x80, 0xFE, 0xFF}
	for len(keys) < 512 {
		k := make([]byte, rng.Intn(25))
		for i := range k {
			k[i] = alphabet[rng.Intn(len(alphabet))]
		}
		if len(k) > 16 && rng.Intn(2) == 0 {
			copy(k, tie) // ties in the first 16 bytes
		}
		add(k)
	}
	return keys
}()

// sortedModel is the reference the tree is checked against: its entries in
// a slice sorted by bytes.Compare.
type sortedModel struct {
	keys [][]byte
	vals []uint64
}

// search returns the index of the first key ≥ k and whether it equals k.
func (m *sortedModel) search(k []byte) (int, bool) {
	i := sort.Search(len(m.keys), func(i int) bool { return bytes.Compare(m.keys[i], k) >= 0 })
	return i, i < len(m.keys) && bytes.Equal(m.keys[i], k)
}

func (m *sortedModel) insert(k []byte, v uint64) (uint64, bool) {
	i, ok := m.search(k)
	if ok {
		prev := m.vals[i]
		m.vals[i] = v
		return prev, true
	}
	m.keys = append(m.keys[:i], append([][]byte{k}, m.keys[i:]...)...)
	m.vals = append(m.vals[:i], append([]uint64{v}, m.vals[i:]...)...)
	return 0, false
}

func (m *sortedModel) delete(k []byte) (uint64, bool) {
	i, ok := m.search(k)
	if !ok {
		return 0, false
	}
	v := m.vals[i]
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
	return v, true
}

func (m *sortedModel) clone() *sortedModel {
	return &sortedModel{keys: append([][]byte(nil), m.keys...), vals: append([]uint64(nil), m.vals...)}
}

// checkModel requires tr to hold exactly m's entries, through every read:
// Len, Get of probe, Min, Max, a full AscendFrom, AscendFrom, Cursor.Seek
// and a cursor walk from probe, and Range over [probe, end).
func checkModel(t *testing.T, what string, tr *Tree, m *sortedModel, probe, end []byte) {
	t.Helper()
	if tr.Len() != len(m.keys) {
		t.Fatalf("%s: Len %d, model %d", what, tr.Len(), len(m.keys))
	}
	i, ok := m.search(probe)
	if v, got := tr.Get(probe); got != ok || ok && v != m.vals[i] {
		t.Fatalf("%s: Get(%q) = %d,%v, model has it: %v", what, probe, v, got, ok)
	}
	minIt, okMin := tr.Min()
	maxIt, okMax := tr.Max()
	if n := len(m.keys); okMin != (n > 0) || okMax != (n > 0) ||
		n > 0 && (!bytes.Equal(minIt.Key, m.keys[0]) || !bytes.Equal(maxIt.Key, m.keys[n-1])) {
		t.Fatalf("%s: Min %q,%v Max %q,%v over %d model entries", what, minIt.Key, okMin, maxIt.Key, okMax, n)
	}
	// walk requires visit to yield exactly the model's entries [from, to).
	walk := func(name string, from, to int, visit func(fn func(Item) bool)) {
		t.Helper()
		j := from
		visit(func(it Item) bool {
			if j >= to || !bytes.Equal(it.Key, m.keys[j]) || it.Val != m.vals[j] {
				t.Fatalf("%s: %s yields %q=%d as entry %d of [%d, %d)", what, name, it.Key, it.Val, j, from, to)
			}
			j++
			return true
		})
		if j != to {
			t.Fatalf("%s: %s stops after %d of [%d, %d)", what, name, j, from, to)
		}
	}
	walk("AscendFrom(nil)", 0, len(m.keys), func(fn func(Item) bool) { tr.AscendFrom(nil, fn) })
	walk("AscendFrom", i, len(m.keys), func(fn func(Item) bool) { tr.AscendFrom(probe, fn) })
	walk("Cursor", i, len(m.keys), func(fn func(Item) bool) {
		c := tr.Cursor()
		for c.Seek(probe); c.Valid(); c.Next() {
			fn(c.Item())
		}
	})
	j, _ := m.search(end)
	j = max(i, j)
	walk("Range", i, j, func(fn func(Item) bool) { tr.Range(probe, end, fn) })
}

// runBTreeModel interprets prog two bytes per step: the first picks the
// operation and the high bit of a key's pool index, the second the rest of
// the index. Every step is checked against a sortedModel, and every Snapshot
// taken on the way must still hold what the model held at that point after
// every later step.
func runBTreeModel(t *testing.T, prog []byte) {
	tr := New()
	m := &sortedModel{}
	type snap struct {
		tr *Tree
		m  *sortedModel
	}
	var snaps []snap
	for s := 0; s+1 < len(prog); s += 2 {
		op := prog[s]
		i := int(op>>7)<<8 | int(prog[s+1])
		k := modelKeys[i%len(modelKeys)]
		end := modelKeys[(i*7+1)%len(modelKeys)]
		switch op & 7 {
		case 0, 1, 2:
			v := uint64(s)
			prev, replaced := tr.Insert(k, v)
			wantPrev, wantReplaced := m.insert(k, v)
			if prev != wantPrev || replaced != wantReplaced {
				t.Fatalf("step %d: Insert(%q) = %d,%v, model %d,%v", s/2, k, prev, replaced, wantPrev, wantReplaced)
			}
		case 3, 4:
			v, ok := tr.Delete(k)
			wantV, wantOK := m.delete(k)
			if v != wantV || ok != wantOK {
				t.Fatalf("step %d: Delete(%q) = %d,%v, model %d,%v", s/2, k, v, ok, wantV, wantOK)
			}
		case 5:
			if len(snaps) == 4 {
				snaps = snaps[1:]
			}
			snaps = append(snaps, snap{tr.Snapshot(), m.clone()})
		}
		checkModel(t, "tree", tr, m, k, end)
		for _, sn := range snaps {
			checkModel(t, "snapshot", sn.tr, sn.m, k, end)
		}
	}
}

// modelProgram draws a program for runBTreeModel that grows the tree to
// most of the pool and shrinks it again, so that nodes split, borrow and
// merge at every depth the pool reaches.
func modelProgram(rng *rand.Rand, steps int) []byte {
	prog := make([]byte, 0, 2*steps)
	for s := 0; s < steps; s++ {
		var op byte
		switch r := rng.Intn(16); {
		case s < steps/2 && r < 11, s >= steps/2 && r < 4:
			op = byte(rng.Intn(3)) // insert
		case r == 15:
			op = 5 // snapshot
		default:
			op = byte(3 + rng.Intn(2)) // delete
		}
		i := rng.Intn(len(modelKeys))
		prog = append(prog, op|byte(i>>8)<<7, byte(i))
	}
	return prog
}

func TestBTreeModel(t *testing.T) {
	steps := 4000
	if testing.Short() {
		steps = 1000
	}
	for seed := int64(1); seed <= 3; seed++ {
		runBTreeModel(t, modelProgram(rand.New(rand.NewSource(seed)), steps))
	}
}

func FuzzBTreeModel(f *testing.F) {
	f.Add(modelProgram(rand.New(rand.NewSource(1)), 600))
	f.Add([]byte{0, 1, 0, 2, 5, 0, 3, 1, 0, 1})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		runBTreeModel(t, prog)
	})
}
