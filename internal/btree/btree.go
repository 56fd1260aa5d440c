// Package btree implements the in-memory B-tree index PrismDB keeps in DRAM
// to locate unsorted objects on NVM (§4.1). Each entry maps a key to a
// packed NVM address (slab ID + slot offset, encoded by the caller into a
// uint64). Only NVM-resident objects are indexed here; flash objects are
// found through per-SST index and filter blocks.
//
// The tree is persistent (copy-on-write) with epoch-scoped transients:
// every node carries the epoch of the Snapshot window it was created in,
// and Snapshot bumps the handle's epoch. Insert and Delete never modify a
// node reachable from a previously published root — any node with an older
// epoch is path-copied — but nodes already created since the last Snapshot
// are mutated in place, so a batch of writes between two Snapshots copies
// each spine node at most once instead of once per operation.
// A *Tree handle is therefore single-writer (PrismDB's partition lock), and
// a Snapshot taken from it is an immutable view that any number of readers
// may traverse concurrently with further writes to the handle — the
// substrate of the engine's lock-free GET path. Keys and the Item structs
// inside shared nodes are never mutated after insert.
package btree

import (
	"bytes"
	"encoding/binary"
)

const degree = 32 // minimum children of an internal node

const (
	maxItems = 2*degree - 1
	minItems = degree - 1
)

// Item is a key/value entry. Keys are treated as immutable after insert.
type Item struct {
	Key []byte
	Val uint64
	// w0 and w1 are Key's first 16 bytes as zero-padded big-endian words,
	// which a node search compares before it reads any key byte.
	w0, w1 uint64
}

// probe is a search key with its leading words, computed once per tree
// operation rather than once per node.
type probe struct {
	key    []byte
	w0, w1 uint64
}

func newProbe(key []byte) probe {
	if len(key) >= 16 {
		return probe{key, binary.BigEndian.Uint64(key), binary.BigEndian.Uint64(key[8:])}
	}
	var b [16]byte
	copy(b[:], key)
	return probe{key, binary.BigEndian.Uint64(b[:]), binary.BigEndian.Uint64(b[8:])}
}

func (it *Item) probe() probe { return probe{it.Key, it.w0, it.w1} }

func (k *probe) item(val uint64) Item { return Item{Key: k.key, Val: val, w0: k.w0, w1: k.w1} }

// compare returns bytes.Compare(it.Key, k.key).
func (k *probe) compare(it *Item) int {
	switch {
	case it.w0 != k.w0:
		return cmpWord(it.w0, k.w0)
	case it.w1 != k.w1:
		return cmpWord(it.w1, k.w1)
	}
	return tieCompare(it.Key, k.key)
}

func cmpWord(a, b uint64) int {
	if a < b {
		return -1
	}
	return 1
}

// tieCompare orders two keys whose first 16 bytes, zero-padded, are equal.
// When either key is no longer than 16 bytes it is a prefix of the other,
// so the shorter sorts first.
func tieCompare(a, b []byte) int {
	if len(a) > 16 && len(b) > 16 {
		return bytes.Compare(a[16:], b[16:])
	}
	return len(a) - len(b)
}

// node is an immutable-once-shared B-tree node. ep records the Snapshot
// epoch the node was created in; mutating code only ever touches nodes
// whose epoch matches the handle's current epoch (clone or fresh), so
// anything reachable from an older root stays bit-identical forever.
type node struct {
	ep       uint64
	items    []Item
	children []*node
	// sharedItems marks items as the slice of the older node this one was
	// relinked from: it stays read-only until mut copies it.
	sharedItems bool
}

func (n *node) leaf() bool { return len(n.children) == 0 }

// clone returns a mutable copy of n stamped with epoch ep, with fresh item
// and child slices (the referenced subtrees are shared — that is the point
// of path copying).
func (n *node) clone(ep uint64) *node {
	nn := &node{ep: ep, items: append([]Item(nil), n.items...)}
	if len(n.children) > 0 {
		nn.children = append([]*node(nil), n.children...)
	}
	return nn
}

// mut returns a node standing in for n that is safe to mutate in epoch ep:
// n itself when it was already created this epoch (no published snapshot
// can reach it), with items of its own, otherwise a clone.
func (n *node) mut(ep uint64) *node {
	if n.ep != ep {
		return n.clone(ep)
	}
	if n.sharedItems {
		n.items = append([]Item(nil), n.items...)
		n.sharedItems = false
	}
	return n
}

// relink returns a node standing in for internal node n whose children,
// but not items, are safe to mutate in epoch ep: n itself when it was
// already created this epoch, otherwise a copy of its children over n's
// items. A descent that only swaps a child pointer copies 64 pointers, not
// 63 items. Leaves are never relinked.
func (n *node) relink(ep uint64) *node {
	if n.ep == ep {
		return n
	}
	return &node{ep: ep, items: n.items, children: append([]*node(nil), n.children...), sharedItems: true}
}

// find returns the index of the first item ≥ k's key and whether it equals
// k's key. It spells out compare, which the compiler does not inline.
func (n *node) find(k *probe) (int, bool) {
	lo, hi := 0, len(n.items)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		it := &n.items[mid]
		var less bool
		switch {
		case it.w0 != k.w0:
			less = it.w0 < k.w0
		case it.w1 != k.w1:
			less = it.w1 < k.w1
		default:
			less = tieCompare(it.Key, k.key) < 0
		}
		if less {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(n.items) {
		it := &n.items[lo]
		return lo, it.w0 == k.w0 && it.w1 == k.w1 && tieCompare(it.Key, k.key) == 0
	}
	return lo, false
}

// Tree is a B-tree index handle. The zero value is an empty tree ready for
// use. The handle itself is not synchronized (single writer); use Snapshot
// to hand an immutable view to concurrent readers.
type Tree struct {
	root  *node
	size  int
	epoch uint64
}

// New returns an empty tree.
func New() *Tree { return &Tree{} }

// Snapshot returns an O(1) immutable view of the tree: a detached handle
// over the current root. Reads on the snapshot (Get, AscendFrom, Cursor,
// Range, Min, Max, Len) are safe concurrently with any number of later
// Insert and Delete calls on the original handle, which never modify
// published nodes:
// Snapshot advances the handle's epoch, so every node the snapshot can
// reach carries an older epoch and is path-copied rather than mutated.
// Snapshot is a writer-side operation (it stamps the handle) and must be
// called under the same single-writer discipline as Insert/Delete.
// Mutating a snapshot is not supported (it would still be safe copy-on-write
// but forks history — the engine never does it).
func (t *Tree) Snapshot() *Tree {
	t.epoch++
	return &Tree{root: t.root, size: t.size, epoch: t.epoch}
}

// Len returns the number of entries.
func (t *Tree) Len() int { return t.size }

// Get returns the value stored for key.
func (t *Tree) Get(key []byte) (uint64, bool) {
	k := newProbe(key)
	n := t.root
	for n != nil {
		i, eq := n.find(&k)
		if eq {
			return n.items[i].Val, true
		}
		if n.leaf() {
			return 0, false
		}
		n = n.children[i]
	}
	return 0, false
}

// Insert stores val under key, returning the previous value and whether the
// key already existed. Previously snapshotted roots are untouched; nodes
// created since the last Snapshot are updated in place.
func (t *Tree) Insert(key []byte, val uint64) (prev uint64, replaced bool) {
	k := newProbe(key)
	if t.root == nil {
		t.root = &node{ep: t.epoch, items: []Item{k.item(val)}}
		t.size = 1
		return 0, false
	}
	root := t.root
	if len(root.items) == maxItems {
		nr := &node{ep: t.epoch, children: []*node{root}}
		nr.splitChild(0)
		root = nr
	}
	newRoot, prev, replaced := root.insert(t.epoch, &k, val)
	t.root = newRoot
	if !replaced {
		t.size++
	}
	return prev, replaced
}

// splitChild splits n.children[i] (which must be full) around its median,
// replacing it with two freshly built halves. n must be mutable (a clone or
// a fresh node in the current epoch); the full child is left untouched.
func (n *node) splitChild(i int) {
	child := n.children[i]
	mid := maxItems / 2
	median := child.items[mid]

	left := &node{ep: n.ep, items: append([]Item(nil), child.items[:mid]...)}
	right := &node{ep: n.ep, items: append([]Item(nil), child.items[mid+1:]...)}
	if !child.leaf() {
		left.children = append([]*node(nil), child.children[:mid+1]...)
		right.children = append([]*node(nil), child.children[mid+1:]...)
	}

	n.items = append(n.items, Item{})
	copy(n.items[i+1:], n.items[i:])
	n.items[i] = median

	n.children = append(n.children, nil)
	copy(n.children[i+2:], n.children[i+1:])
	n.children[i] = left
	n.children[i+1] = right
}

// insert is the path-copying descent: it returns a node standing in for n
// with key inserted somewhere below — n itself, mutated, when it already
// belongs to epoch ep, or a fresh copy otherwise.
func (n *node) insert(ep uint64, k *probe, val uint64) (*node, uint64, bool) {
	i, eq := n.find(k)
	if eq {
		nn := n.mut(ep)
		prev := nn.items[i].Val
		nn.items[i].Val = val
		return nn, prev, true
	}
	if n.leaf() {
		if n.ep == ep {
			n.items = append(n.items, Item{})
			copy(n.items[i+1:], n.items[i:])
			n.items[i] = k.item(val)
			return n, 0, false
		}
		nn := &node{ep: ep, items: make([]Item, len(n.items)+1)}
		copy(nn.items, n.items[:i])
		nn.items[i] = k.item(val)
		copy(nn.items[i+1:], n.items[i:])
		return nn, 0, false
	}
	var nn *node
	if len(n.children[i].items) == maxItems {
		nn = n.mut(ep)
		nn.splitChild(i)
		if c := k.compare(&nn.items[i]); c == 0 {
			prev := nn.items[i].Val
			nn.items[i].Val = val
			return nn, prev, true
		} else if c < 0 {
			i++
		}
	} else {
		nn = n.relink(ep)
	}
	child, prev, replaced := nn.children[i].insert(ep, k, val)
	nn.children[i] = child
	return nn, prev, replaced
}

// Delete removes key, returning its value and whether it was present.
// Previously snapshotted roots are untouched; when the key is absent the
// tree's contents are unchanged (nodes created since the last Snapshot may
// have been rebalanced in place, which is invisible to Get/iteration).
func (t *Tree) Delete(key []byte) (uint64, bool) {
	if t.root == nil {
		return 0, false
	}
	k := newProbe(key)
	newRoot, val, ok := t.root.remove(t.epoch, &k)
	if !ok {
		return 0, false
	}
	if len(newRoot.items) == 0 {
		if newRoot.leaf() {
			newRoot = nil
		} else {
			newRoot = newRoot.children[0]
		}
	}
	t.root = newRoot
	t.size--
	return val, ok
}

// remove is the path-copying removal descent: on success it returns a node
// standing in for n with key removed below (n itself when it belongs to
// epoch ep). On a miss it returns n unchanged in content — speculative
// restructuring is either discarded (copied spine) or harmless (an
// in-place rebalance preserves the entry set).
func (n *node) remove(ep uint64, k *probe) (*node, uint64, bool) {
	i, eq := n.find(k)
	if n.leaf() {
		if !eq {
			return n, 0, false
		}
		val := n.items[i].Val
		if n.ep == ep {
			copy(n.items[i:], n.items[i+1:])
			n.items[len(n.items)-1] = Item{} // release the vacated slot's refs
			n.items = n.items[:len(n.items)-1]
			return n, val, true
		}
		nn := &node{ep: ep, items: make([]Item, len(n.items)-1)}
		copy(nn.items, n.items[:i])
		copy(nn.items[i:], n.items[i+1:])
		return nn, val, true
	}
	if eq {
		val := n.items[i].Val
		// Replace with predecessor (max of left subtree) or successor, then
		// delete that boundary key from the child — grow-first discipline
		// keeps the recursive removal from underflowing.
		if len(n.children[i].items) > minItems {
			pred := n.children[i].max()
			pk := pred.probe()
			child, _, _ := n.children[i].remove(ep, &pk)
			nn := n.mut(ep)
			nn.items[i] = pred
			nn.children[i] = child
			return nn, val, true
		}
		if len(n.children[i+1].items) > minItems {
			succ := n.children[i+1].min()
			sk := succ.probe()
			child, _, _ := n.children[i+1].remove(ep, &sk)
			nn := n.mut(ep)
			nn.items[i] = succ
			nn.children[i+1] = child
			return nn, val, true
		}
		nn := n.mut(ep)
		nn.mergeChildren(i)
		child, v, ok := nn.children[i].remove(ep, k)
		nn.children[i] = child
		return nn, v, ok
	}
	// Descending: ensure the target child has more than minItems first.
	if len(n.children[i].items) == minItems {
		nn, j := n.growChild(ep, i)
		child, v, ok := nn.children[j].remove(ep, k)
		if !ok {
			return n, 0, false // key absent: the rebalance changed no content
		}
		nn.children[j] = child
		return nn, v, ok
	}
	child, v, ok := n.children[i].remove(ep, k)
	if !ok {
		return n, 0, false
	}
	nn := n.relink(ep)
	nn.children[i] = child
	return nn, v, ok
}

func (n *node) max() Item {
	for !n.leaf() {
		n = n.children[len(n.children)-1]
	}
	return n.items[len(n.items)-1]
}

func (n *node) min() Item {
	for !n.leaf() {
		n = n.children[0]
	}
	return n.items[0]
}

// growChild returns a stand-in for n in which children[i] has more than
// minItems — by borrowing from a sibling or merging — plus the (possibly
// shifted) child index to descend into. Nodes from older epochs are never
// modified; the affected children are made mutable (in place or cloned)
// inside the returned node.
func (n *node) growChild(ep uint64, i int) (*node, int) {
	nn := n.mut(ep)
	switch {
	case i > 0 && len(nn.children[i-1].items) > minItems:
		// Borrow from left sibling through the separator.
		child, left := nn.children[i].mut(ep), nn.children[i-1].mut(ep)
		child.items = append(child.items, Item{})
		copy(child.items[1:], child.items)
		child.items[0] = nn.items[i-1]
		nn.items[i-1] = left.items[len(left.items)-1]
		left.items[len(left.items)-1] = Item{}
		left.items = left.items[:len(left.items)-1]
		if !left.leaf() {
			moved := left.children[len(left.children)-1]
			left.children = left.children[:len(left.children)-1]
			child.children = append(child.children, nil)
			copy(child.children[1:], child.children)
			child.children[0] = moved
		}
		nn.children[i-1] = left
		nn.children[i] = child
	case i < len(nn.children)-1 && len(nn.children[i+1].items) > minItems:
		// Borrow from right sibling through the separator.
		child, right := nn.children[i].mut(ep), nn.children[i+1].mut(ep)
		child.items = append(child.items, nn.items[i])
		nn.items[i] = right.items[0]
		copy(right.items, right.items[1:])
		right.items[len(right.items)-1] = Item{}
		right.items = right.items[:len(right.items)-1]
		if !right.leaf() {
			child.children = append(child.children, right.children[0])
			right.children = append(right.children[:0], right.children[1:]...)
		}
		nn.children[i] = child
		nn.children[i+1] = right
	default:
		if i == len(nn.children)-1 {
			i--
		}
		nn.mergeChildren(i)
	}
	return nn, i
}

// mergeChildren replaces children[i] and children[i+1] with a freshly built
// merge of children[i], items[i], and children[i+1]. n must be mutable (the
// current epoch); the merged-away children are left untouched.
func (n *node) mergeChildren(i int) {
	child, right := n.children[i], n.children[i+1]
	m := &node{ep: n.ep, items: make([]Item, 0, len(child.items)+1+len(right.items))}
	m.items = append(m.items, child.items...)
	m.items = append(m.items, n.items[i])
	m.items = append(m.items, right.items...)
	if !child.leaf() {
		m.children = make([]*node, 0, len(child.children)+len(right.children))
		m.children = append(m.children, child.children...)
		m.children = append(m.children, right.children...)
	}
	n.items = append(n.items[:i], n.items[i+1:]...)
	n.children[i] = m
	n.children = append(n.children[:i+1], n.children[i+2:]...)
}

// AscendFrom calls fn for every entry with key ≥ start in ascending order,
// stopping early if fn returns false. A nil start iterates from the minimum.
func (t *Tree) AscendFrom(start []byte, fn func(Item) bool) {
	if t.root == nil {
		return
	}
	if start == nil {
		t.root.ascend(nil, fn)
		return
	}
	k := newProbe(start)
	t.root.ascend(&k, fn)
}

// ascend is AscendFrom below n; a nil start iterates from n's minimum.
func (n *node) ascend(start *probe, fn func(Item) bool) bool {
	i := 0
	if start != nil {
		i, _ = n.find(start)
	}
	for ; i < len(n.items); i++ {
		if !n.leaf() && !n.children[i].ascend(start, fn) {
			return false
		}
		if start != nil && start.compare(&n.items[i]) < 0 {
			continue
		}
		if !fn(n.items[i]) {
			return false
		}
		// Children right of a yielded item are all ≥ start.
		start = nil
	}
	if !n.leaf() {
		return n.children[len(n.children)-1].ascend(start, fn)
	}
	return true
}

// cursorDepth is the longest root-to-item path a Cursor can hold. The root of
// a multi-level tree has at least 2 children and every internal node below it
// at least degree (32), so a tree with more levels than this has at least
// 2·32^(cursorDepth-1) = 2^56 leaves — no memory holds its keys. The bound
// follows from the tree's shape invariant; there is no fallback for a deeper
// path.
const cursorDepth = 12

// Cursor is a pull iterator over a tree's entries in ascending key order:
// the same in-order walk AscendFrom makes, as a resumable position the caller
// advances one entry at a time. It holds a fixed root-to-item path, so
// seeking and stepping never allocate. A cursor reads the nodes reachable
// from the root it was created over; like every other read it is safe
// alongside writers only over a Snapshot. The zero Cursor is exhausted.
type Cursor struct {
	root *node
	// path[:depth] runs from the root to the node holding the current entry.
	// The last frame's i indexes that entry; an earlier frame's i is the
	// child the path descends through, which is also the index of the next
	// entry of that node once the child's subtree is exhausted.
	path  [cursorDepth]cursorFrame
	depth int // 0: exhausted (or not yet positioned)
}

type cursorFrame struct {
	n *node
	i int
}

// Cursor returns a cursor over t, unpositioned until its first Seek.
func (t *Tree) Cursor() Cursor { return Cursor{root: t.root} }

// Seek positions the cursor at the first entry with key ≥ start (nil = the
// minimum entry).
func (c *Cursor) Seek(start []byte) {
	c.depth = 0
	if c.root != nil {
		if start == nil {
			c.descend(c.root, nil)
		} else {
			k := newProbe(start)
			c.descend(c.root, &k)
		}
	}
	c.settle()
}

// descend extends the path from n down to where its subtree's first entry
// ≥ start (nil = its minimum) is or would be: an equal key, or a leaf.
func (c *Cursor) descend(n *node, start *probe) {
	for {
		i, eq := 0, false
		if start != nil {
			i, eq = n.find(start)
		}
		c.path[c.depth] = cursorFrame{n, i}
		c.depth++
		if eq || n.leaf() {
			return
		}
		n = n.children[i]
	}
}

// settle pops frames whose node has no entry left at its index, leaving the
// cursor on the nearest ancestor entry — the in-order successor of a
// finished subtree — or exhausted.
func (c *Cursor) settle() {
	for c.depth > 0 {
		if f := &c.path[c.depth-1]; f.i < len(f.n.items) {
			return
		}
		c.depth--
	}
}

// Valid reports whether the cursor is positioned at an entry.
func (c *Cursor) Valid() bool { return c.depth > 0 }

// Item returns the current entry. The cursor must be Valid.
func (c *Cursor) Item() Item {
	f := &c.path[c.depth-1]
	return f.n.items[f.i]
}

// Next advances to the next entry in key order. The cursor must be Valid.
func (c *Cursor) Next() {
	f := &c.path[c.depth-1]
	f.i++
	// After an internal node's entry comes the minimum of the child to its
	// right; after a leaf's, the next entry of the leaf or of an ancestor.
	if !f.n.leaf() {
		c.descend(f.n.children[f.i], nil)
	}
	c.settle()
}

// Range calls fn for every entry with start ≤ key < end (end nil = +∞).
func (t *Tree) Range(start, end []byte, fn func(Item) bool) {
	t.AscendFrom(start, func(it Item) bool {
		if end != nil && bytes.Compare(it.Key, end) >= 0 {
			return false
		}
		return fn(it)
	})
}

// Min returns the smallest entry.
func (t *Tree) Min() (Item, bool) {
	if t.root == nil || t.size == 0 {
		return Item{}, false
	}
	return t.root.min(), true
}

// Max returns the largest entry.
func (t *Tree) Max() (Item, bool) {
	if t.root == nil || t.size == 0 {
		return Item{}, false
	}
	return t.root.max(), true
}
