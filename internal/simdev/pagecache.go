package simdev

import (
	"slices"
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
// this structure sits on the engine's per-op read path. A page is found with
// no hashing at all: every file the cache has seen has a small id and a page
// table, indexed by page number, of the nodes of its resident pages. Touch
// looks the file's name up once per call, and TouchFile not at all while the
// id it cached on the File is current.
type PageCache struct {
	mu       sync.Mutex
	capacity int // pages
	resident int // pages
	nodes    []pcNode
	names    map[string]int32 // file name → id, while the id is in files
	files    []pcFile         // by id
	freeIDs  []int32
	head     int32 // most recently used, -1 when empty
	tail     int32 // least recently used, -1 when empty
	free     int32 // free-list head (linked through next), -1 when exhausted
	hits     int64
	misses   int64
}

type pcNode struct {
	file       int32
	prev, next int32
	page       int64
}

// pcFile is one entry of the name table. An id names its file until
// InvalidateFile drops the file's last resident page, and is then reused.
type pcFile struct {
	name     string
	live     bool
	pages    []int32 // by page number: 1 + the page's node, 0 when not resident
	resident int
}

const pcNil = int32(-1)

// NewPageCache creates a cache holding capacityBytes worth of pages.
// A non-positive capacity yields a cache that always misses.
func NewPageCache(capacityBytes int64) *PageCache {
	pages := int(capacityBytes / PageSize)
	return &PageCache{
		capacity: pages,
		names:    make(map[string]int32),
		head:     pcNil,
		tail:     pcNil,
		free:     pcNil,
	}
}

// idLocked returns the id of the named file, entering it in the name table
// when it has none. Caller holds c.mu.
func (c *PageCache) idLocked(name string) int32 {
	if id, ok := c.names[name]; ok {
		return id
	}
	var id int32
	if n := len(c.freeIDs); n > 0 {
		id = c.freeIDs[n-1]
		c.freeIDs = c.freeIDs[:n-1]
	} else {
		id = int32(len(c.files))
		c.files = append(c.files, pcFile{})
	}
	c.files[id] = pcFile{name: name, live: true}
	c.names[name] = id
	return id
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
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.touchLocked(c.idLocked(file), off, n)
}

// TouchFile is Touch of f's name, with the name's id cached on f: a reader
// of the same file touches it by integer alone. The cached id is checked
// against the name table, so a stale one (the name was invalidated, or f was
// last touched through another cache) costs one name lookup, never a wrong
// page.
func (c *PageCache) TouchFile(f *File, off, n int64) (missPages int64) {
	if n <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	id := f.pcID.Load() - 1
	if id < 0 || int(id) >= len(c.files) || !c.files[id].live || c.files[id].name != f.name {
		id = c.idLocked(f.name)
		f.pcID.Store(id + 1)
	}
	return c.touchLocked(id, off, n)
}

// touchLocked is Touch of the file with the given id. Caller holds c.mu.
func (c *PageCache) touchLocked(id int32, off, n int64) (missPages int64) {
	f := &c.files[id]
	first := off / PageSize
	last := (off + n - 1) / PageSize
	for p := first; p <= last; p++ {
		if p < int64(len(f.pages)) && f.pages[p] != 0 {
			if i := f.pages[p] - 1; c.head != i {
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
		for c.resident >= c.capacity {
			lru := c.tail
			c.unlink(lru)
			c.drop(lru)
		}
		i := c.alloc()
		c.nodes[i].file, c.nodes[i].page = id, p
		c.pushFront(i)
		if p >= int64(len(f.pages)) {
			old := len(f.pages)
			f.pages = slices.Grow(f.pages, int(p)+1-old)[:p+1]
			clear(f.pages[old:])
		}
		f.pages[p] = i + 1
		f.resident++
		c.resident++
	}
	return missPages
}

// drop forgets unlinked node i's page and frees the node. Caller holds c.mu.
func (c *PageCache) drop(i int32) {
	n := &c.nodes[i]
	f := &c.files[n.file]
	f.pages[n.page] = 0
	f.resident--
	c.resident--
	n.next = c.free
	c.free = i
}

// Contains reports whether a single page is resident, without touching it.
func (c *PageCache) Contains(file string, off int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.names[file]
	if !ok {
		return false
	}
	pages := c.files[id].pages
	p := off / PageSize
	return p < int64(len(pages)) && pages[p] != 0
}

// InvalidateFile drops the resident pages of the named file, as the kernel
// does when a file is deleted; size is the file's length in bytes.
// Compactions call this when removing SSTs so dead files don't keep polluting
// the cache. The file's pages are looked up over its page range — work
// proportional to the file, not to the cache, because every reader's Touch
// waits on the same mutex — and other files' residency and LRU order are
// untouched. A file left with no resident page leaves the name table too,
// which is what bounds the table by the files alive on the cache's devices.
func (c *PageCache) InvalidateFile(file string, size int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id, ok := c.names[file]
	if !ok {
		return
	}
	f := &c.files[id]
	for p := int64(0); p*PageSize < size && p < int64(len(f.pages)); p++ {
		if f.pages[p] != 0 {
			i := f.pages[p] - 1
			c.unlink(i)
			c.drop(i)
		}
	}
	if f.resident == 0 {
		delete(c.names, file)
		c.files[id] = pcFile{}
		c.freeIDs = append(c.freeIDs, id)
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
	return c.resident
}
