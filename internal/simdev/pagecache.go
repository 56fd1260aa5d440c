package simdev

import (
	"sync"
)

// PageCache models the OS page cache: an LRU of (file, page) entries.
// PrismDB relies on the kernel page cache instead of a userspace DRAM
// object cache (§4.1), so cache residency determines whether a slab access
// costs a device I/O. The LSM baselines use the same structure for their
// block caches.
//
// Only cache residency is tracked, not page contents: the backing store in
// File always holds current data, so a hit simply skips the device charge.
//
// The LRU is an intrusive doubly-linked list over a slab of nodes indexed
// by int32, so steady-state hits and evict+insert cycles allocate nothing —
// this structure sits on the engine's per-op read path.
type PageCache struct {
	mu       sync.Mutex
	capacity int // pages
	nodes    []pcNode
	entries  map[pageKey]int32
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	free     int32 // free-list head (linked through next), -1 when exhausted
	hits     int64
	misses   int64
}

type pcNode struct {
	key        pageKey
	prev, next int32
}

type pageKey struct {
	file string
	page int64
}

const pcNil = int32(-1)

// NewPageCache creates a cache holding capacityBytes worth of pages.
// A non-positive capacity yields a cache that always misses.
func NewPageCache(capacityBytes int64) *PageCache {
	pages := int(capacityBytes / PageSize)
	return &PageCache{
		capacity: pages,
		entries:  make(map[pageKey]int32),
		head:     pcNil,
		tail:     pcNil,
		free:     pcNil,
	}
}

// unlink removes node i from the LRU list. Caller holds c.mu.
func (c *PageCache) unlink(i int32) {
	n := &c.nodes[i]
	if n.prev != pcNil {
		c.nodes[n.prev].next = n.next
	} else {
		c.head = n.next
	}
	if n.next != pcNil {
		c.nodes[n.next].prev = n.prev
	} else {
		c.tail = n.prev
	}
}

// pushFront links node i at the MRU end. Caller holds c.mu.
func (c *PageCache) pushFront(i int32) {
	n := &c.nodes[i]
	n.prev, n.next = pcNil, c.head
	if c.head != pcNil {
		c.nodes[c.head].prev = i
	}
	c.head = i
	if c.tail == pcNil {
		c.tail = i
	}
}

// alloc returns a node index from the free list, growing the slab while
// below capacity. Caller holds c.mu and guarantees room (evicts first).
func (c *PageCache) alloc() int32 {
	if c.free != pcNil {
		i := c.free
		c.free = c.nodes[i].next
		return i
	}
	c.nodes = append(c.nodes, pcNode{})
	return int32(len(c.nodes) - 1)
}

// Touch records an access to the page range [off, off+n) of file. It
// returns the number of pages that missed (must be read from the device).
// All touched pages become resident, evicting LRU pages as needed.
func (c *PageCache) Touch(file string, off, n int64) (missPages int64) {
	if n <= 0 {
		return 0
	}
	first := off / PageSize
	last := (off + n - 1) / PageSize
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := first; p <= last; p++ {
		k := pageKey{file, p}
		if i, ok := c.entries[k]; ok {
			if c.head != i {
				c.unlink(i)
				c.pushFront(i)
			}
			c.hits++
			continue
		}
		c.misses++
		missPages++
		if c.capacity <= 0 {
			continue
		}
		for len(c.entries) >= c.capacity {
			lru := c.tail
			c.unlink(lru)
			delete(c.entries, c.nodes[lru].key)
			c.nodes[lru].next = c.free
			c.free = lru
		}
		i := c.alloc()
		c.nodes[i].key = k
		c.pushFront(i)
		c.entries[k] = i
	}
	return missPages
}

// Contains reports whether a single page is resident, without touching it.
func (c *PageCache) Contains(file string, off int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[pageKey{file, off / PageSize}]
	return ok
}

// InvalidateFile drops the resident pages of the named file, as the kernel
// does when a file is deleted; size is the file's length in bytes.
// Compactions call this when removing SSTs so dead files don't keep polluting
// the cache. The file's pages are looked up by key over its page range — work
// proportional to the file, not to the cache, because every reader's Touch
// waits on the same mutex — and other files' residency and LRU order are
// untouched.
func (c *PageCache) InvalidateFile(file string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := int64(0); p*PageSize < size; p++ {
		k := pageKey{file, p}
		i, ok := c.entries[k]
		if !ok {
			continue
		}
		c.unlink(i)
		delete(c.entries, k)
		c.nodes[i].next = c.free
		c.free = i
	}
}

// HitRate returns hits/(hits+misses), or 0 before any access.
func (c *PageCache) HitRate() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	total := c.hits + c.misses
	if total == 0 {
		return 0
	}
	return float64(c.hits) / float64(total)
}

// Stats returns raw hit and miss counts.
func (c *PageCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}

// Len returns the number of resident pages.
func (c *PageCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}
