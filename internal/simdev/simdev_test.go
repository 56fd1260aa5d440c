package simdev

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("new clock at %d, want 0", c.Now())
	}
	c.Advance(5 * time.Microsecond)
	if got := c.Now(); got != 5000 {
		t.Fatalf("Now = %d, want 5000", got)
	}
	c.Advance(-time.Second) // negative ignored
	if got := c.Now(); got != 5000 {
		t.Fatalf("Now after negative advance = %d, want 5000", got)
	}
	if stall := c.AdvanceTo(4000); stall != 0 {
		t.Fatalf("AdvanceTo(past) stalled %v, want 0", stall)
	}
	if stall := c.AdvanceTo(9000); stall != 4000 {
		t.Fatalf("AdvanceTo(future) stalled %v, want 4000ns", stall)
	}
	if c.Elapsed() != 9000 {
		t.Fatalf("Elapsed = %v, want 9µs", c.Elapsed())
	}
}

// TestClockForkBatch: requests forked from one issue time run as a batch,
// not a chain — N of them on a C-lane device all complete by
// t + ⌈N/C⌉·svc — and the issuer, advancing to each fork's time, stands at
// the latest completion so far, never moves back for an earlier fork, and
// allocates nothing for the batch.
func TestClockForkBatch(t *testing.T) {
	const n = 75
	d := New(NVMParams(1 << 30))
	lanes := int64(d.Params().Channels)
	svc := int64(d.serviceTime(OpWrite, PageSize))
	t0 := int64(time.Millisecond)
	issuer := NewBGClock()
	issuer.AdvanceTo(t0)
	issue := issuer.Fork()
	var latest int64
	for i := 0; i < n; i++ {
		req := issue.Fork()
		if req.Now() != t0 || !req.Background() {
			t.Fatalf("fork %d at %d (background %v), want the issue time %d on a background clock",
				i, req.Now(), req.Background(), t0)
		}
		d.AccessClk(&req, OpWrite, PageSize)
		latest = max(latest, req.Now())
		issuer.AdvanceTo(req.Now())
		if issuer.Now() != latest {
			t.Fatalf("after fork %d the issuer is at %d, want the latest completion %d", i, issuer.Now(), latest)
		}
	}
	if bound := t0 + (n+lanes-1)/lanes*svc; latest > bound {
		t.Fatalf("%d forked writes on %d lanes complete at %d, want by %d (serial: %d)",
			n, lanes, latest, bound, t0+n*svc)
	}
	if st := d.Stats(); st.WriteOps != n {
		t.Fatalf("WriteOps = %d, want %d", st.WriteOps, n)
	}
	early := issue.Fork()
	issuer.AdvanceTo(early.Now())
	if issuer.Now() != latest {
		t.Fatalf("a fork at %d moved the issuer from %d to %d", early.Now(), latest, issuer.Now())
	}
	allocs := testing.AllocsPerRun(100, func() {
		req := issue.Fork()
		d.AccessClk(&req, OpWrite, PageSize)
		issuer.AdvanceTo(req.Now())
	})
	if allocs != 0 {
		t.Fatalf("a forked request allocates %.1f times, want 0", allocs)
	}
}

// TestLaneBackfill: a request arriving before a lane's frontier starts in
// the first idle time after its arrival that holds it, however far back;
// a hole too short for it is skipped; and once the lane forgets its oldest
// interval, that time counts as idle.
func TestLaneBackfill(t *testing.T) {
	ls := newLaneSet(1)
	for _, c := range []struct{ now, svc, want int64 }{
		{100, 10, 100},
		{130, 10, 130},
		{95, 10, 110},  // [95,105) collides with [100,110); the hole [110,130) holds it
		{0, 10, 0},     // long before anything the lane holds
		{115, 20, 140}, // the hole [120,130) is too short
		{105, 5, 120},  // but holds this one
		{40, 5, 40},
	} {
		if got := schedule(&ls, c.now, c.svc); got != c.want {
			t.Fatalf("a %d ns request arriving at %d starts at %d, want %d", c.svc, c.now, got, c.want)
		}
	}
	ls = newLaneSet(1)
	for i := int64(1); i <= maxLaneBusy+1; i++ {
		schedule(&ls, i*100, 10)
	}
	if got := schedule(&ls, 100, 10); got != 100 {
		t.Fatalf("a request in the forgotten interval [100,110) starts at %d, want 100", got)
	}
	if got := schedule(&ls, 200, 10); got != 210 {
		t.Fatalf("a request in the remembered interval [200,210) starts at %d, want 210", got)
	}
}

// TestScheduleWalkMatchesFullScan: walking the lanes in frontier order and
// stopping early picks the lane and start that trying every lane picks —
// the earliest start, ties to the earliest frontier, then the lowest index —
// and keeps the walk order sorted, under arrivals that mix in-order,
// queued and far out-of-order timestamps.
func TestScheduleWalkMatchesFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ls := newLaneSet(4)
	var base int64
	for k := 0; k < 50000; k++ {
		base += rng.Int63n(400)
		now, svc := max(0, base+rng.Int63n(4000)-3000), 1+rng.Int63n(1000)
		want, wantLane := int64(0), -1
		for i := range ls.lanes {
			l := &ls.lanes[i]
			s := max(now, l.freeAt)
			if now < l.lastS {
				s, _ = l.fit(now, svc)
			}
			if wantLane < 0 || s < want || s == want && l.freeAt < ls.lanes[wantLane].freeAt {
				want, wantLane = s, i
			}
		}
		before := append([]lane(nil), ls.lanes...)
		if got := schedule(&ls, now, svc); got != want {
			t.Fatalf("request %d (%d ns at %d) starts at %d, want %d", k, svc, now, got, want)
		}
		for i := range ls.lanes {
			if changed := ls.lanes[i] != before[i]; changed != (i == wantLane) {
				t.Fatalf("request %d: lane %d changed = %v, want only lane %d to change", k, i, changed, wantLane)
			}
		}
		for p := 1; p < len(ls.order); p++ {
			a, b := ls.order[p-1], ls.order[p]
			if fa, fb := ls.lanes[a].freeAt, ls.lanes[b].freeAt; fa > fb || fa == fb && a > b {
				t.Fatalf("request %d: walk order %v out of frontier order", k, ls.order)
			}
		}
	}
}

// TestLaneNoFalseQueueing: many background clocks far apart in virtual time
// — partitions' compaction jobs under the serial driver — issue their
// sequential requests interleaved, the logically latest first. Their busy
// times never overlap, so nothing may queue, and however they interleave,
// no two requests on one lane overlap.
func TestLaneNoFalseQueueing(t *testing.T) {
	const clocks, reqs = 24, 50
	d := New(NVMParams(1 << 30))
	var clks [clocks]*Clock
	for i := range clks {
		clks[i] = NewBGClock()
		clks[i].AdvanceTo(int64(clocks-i) * int64(time.Millisecond))
	}
	for r := 0; r < reqs; r++ {
		for _, c := range clks {
			d.AccessClk(c, OpWrite, PageSize)
		}
	}
	if q := d.Stats().QueueTime; q != 0 {
		t.Fatalf("%d disjoint request streams queued %v", clocks, q)
	}
	for _, l := range d.bgChannels.lanes {
		for i := 1; i < l.n; i++ {
			if l.busy[i].s < l.busy[i-1].e {
				t.Fatalf("lane intervals overlap: %v then %v", l.busy[i-1], l.busy[i])
			}
		}
	}
}

func TestDeviceServiceTime(t *testing.T) {
	d := New(Params{
		Name: "t", ReadLatency: 10 * time.Microsecond, WriteLatency: 20 * time.Microsecond,
		ReadBandwidth: 1 << 30, WriteBandwidth: 1 << 30, Channels: 1, Capacity: 1 << 30,
	})
	// 4KB read: latency + 4096/1GiB sec ≈ 10µs + 3.8µs
	svc := d.serviceTime(OpRead, 4096)
	want := 10*time.Microsecond + time.Duration(4096*int64(time.Second)/(1<<30))
	if svc != want {
		t.Fatalf("serviceTime read = %v, want %v", svc, want)
	}
	// Sub-page request rounds up to one page.
	if got := d.serviceTime(OpRead, 100); got != want {
		t.Fatalf("sub-page serviceTime = %v, want %v", got, want)
	}
	// Writes use write latency/bandwidth.
	if got := d.serviceTime(OpWrite, 4096); got <= svc {
		t.Fatalf("write serviceTime %v not slower than read %v", got, svc)
	}
}

func TestDeviceQueueing(t *testing.T) {
	// One channel: second concurrent request must wait for the first.
	d := New(Params{
		Name: "q", ReadLatency: 100 * time.Microsecond, Channels: 1, Capacity: 1 << 30,
	})
	c1 := d.Access(0, OpRead, 4096)
	c2 := d.Access(0, OpRead, 4096)
	if c2 <= c1 {
		t.Fatalf("second request completed at %d, not after first at %d", c2, c1)
	}
	if c2 != 2*c1 {
		t.Fatalf("second request at %d, want %d (serialized)", c2, 2*c1)
	}
	st := d.Stats()
	if st.QueueTime != time.Duration(c1) {
		t.Fatalf("QueueTime = %v, want %v", st.QueueTime, time.Duration(c1))
	}
}

func TestDeviceParallelChannels(t *testing.T) {
	d := New(Params{
		Name: "p", ReadLatency: 100 * time.Microsecond, Channels: 4, Capacity: 1 << 30,
	})
	var completions []int64
	for i := 0; i < 4; i++ {
		completions = append(completions, d.Access(0, OpRead, 4096))
	}
	for i, c := range completions {
		if c != completions[0] {
			t.Fatalf("request %d completed at %d, want all parallel at %d", i, c, completions[0])
		}
	}
	// Fifth request queues.
	if c := d.Access(0, OpRead, 4096); c <= completions[0] {
		t.Fatalf("5th request at %d should queue past %d", c, completions[0])
	}
}

func TestDeviceChannelTimesMonotonic(t *testing.T) {
	// Property: a request issued at time now never completes before
	// now + service, and stats count every operation.
	d := New(Params{Name: "m", ReadLatency: time.Microsecond, Channels: 3, Capacity: 1 << 30})
	f := func(nowRaw uint32, sizeRaw uint16, write bool) bool {
		now := int64(nowRaw)
		size := int64(sizeRaw) + 1
		kind := OpRead
		if write {
			kind = OpWrite
		}
		done := d.Access(now, kind, size)
		return done >= now+int64(d.serviceTime(kind, size))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceStatsAndWear(t *testing.T) {
	d := New(NVMParams(1 << 30))
	clk := NewClock()
	d.AccessClk(clk, OpWrite, 8192)
	d.AccessClk(clk, OpRead, 4096)
	st := d.Stats()
	if st.WriteOps != 1 || st.WriteBytes != 8192 {
		t.Fatalf("write stats = %+v", st)
	}
	if st.ReadOps != 1 || st.ReadBytes != 4096 {
		t.Fatalf("read stats = %+v", st)
	}
	if d.WearBytes() != 8192 {
		t.Fatalf("wear = %d, want 8192", d.WearBytes())
	}
	d.ResetStats()
	if got := d.Stats(); got.WriteOps != 0 || got.ReadOps != 0 {
		t.Fatalf("stats after reset = %+v", got)
	}
	if d.WearBytes() != 8192 {
		t.Fatalf("wear must survive ResetStats, got %d", d.WearBytes())
	}
}

func TestDeviceLifetimeModel(t *testing.T) {
	d := New(QLCParams(600 << 30)) // 600 GB, 0.1 DWPD, 5y warranty
	tbw := d.TotalWriteBudget()
	want := float64(600<<30) * 0.1 * 365 * 5
	if tbw != want {
		t.Fatalf("TBW = %g, want %g", tbw, want)
	}
	// Writing exactly one drive-capacity per day at 0.1 DWPD lasts 0.5y.
	years := d.LifetimeYears(float64(600 << 30))
	if diff := years - 0.5; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("LifetimeYears = %g, want 0.5", years)
	}
	if d.LifetimeYears(0) != 5 {
		t.Fatalf("zero write rate should return warranty years")
	}
}

func TestDeviceCost(t *testing.T) {
	d := New(QLCParams(100 << 30))
	if got := d.Cost(); got != 10.0 {
		t.Fatalf("Cost = %g, want $10 for 100GB at $0.1/GB", got)
	}
}

func TestFileCreateAppendRead(t *testing.T) {
	d := New(NVMParams(1 << 20))
	f, err := d.CreateFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.CreateFile("a"); err == nil {
		t.Fatal("duplicate create should fail")
	}
	off, err := f.Append([]byte("hello"))
	if err != nil || off != 0 {
		t.Fatalf("append: off=%d err=%v", off, err)
	}
	off2, _ := f.Append([]byte("world"))
	if off2 != 5 {
		t.Fatalf("second append off=%d, want 5", off2)
	}
	buf := make([]byte, 10)
	if err := f.ReadAt(buf, 0); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "helloworld" {
		t.Fatalf("read %q", buf)
	}
	if err := f.ReadAt(buf, 5); err == nil {
		t.Fatal("out-of-range read should fail")
	}
	if d.Used() != 10 {
		t.Fatalf("used = %d, want 10", d.Used())
	}
}

func TestFileWriteAtInPlace(t *testing.T) {
	d := New(NVMParams(1 << 20))
	f, _ := d.CreateFile("slab")
	if err := f.Truncate(4096); err != nil {
		t.Fatal(err)
	}
	if err := f.WriteAt([]byte("xyz"), 100); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if err := f.ReadAt(buf, 100); err != nil || string(buf) != "xyz" {
		t.Fatalf("got %q err %v", buf, err)
	}
	if err := f.WriteAt([]byte("abc"), 4095); err == nil {
		t.Fatal("write past end must fail (in-place only)")
	}
	// Truncate shrink is a no-op.
	if err := f.Truncate(10); err != nil {
		t.Fatal(err)
	}
	if f.Size() != 4096 {
		t.Fatalf("size = %d after shrink attempt, want 4096", f.Size())
	}
}

func TestDeviceCapacityEnforced(t *testing.T) {
	d := New(Params{Name: "tiny", Capacity: 100, Channels: 1})
	f, _ := d.CreateFile("f")
	if _, err := f.Append(make([]byte, 60)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Append(make([]byte, 60)); err == nil {
		t.Fatal("append past capacity must fail")
	}
	if err := d.RemoveFile("f"); err != nil {
		t.Fatal(err)
	}
	if d.Used() != 0 {
		t.Fatalf("used after remove = %d", d.Used())
	}
	f2, _ := d.CreateFile("g")
	if _, err := f2.Append(make([]byte, 100)); err != nil {
		t.Fatalf("space not reclaimed: %v", err)
	}
}

func TestDeviceListAndRemove(t *testing.T) {
	d := New(NVMParams(1 << 20))
	d.CreateFile("b")
	d.CreateFile("a")
	d.CreateFile("c")
	got := d.ListFiles()
	if len(got) != 3 || got[0] != "a" || got[1] != "b" || got[2] != "c" {
		t.Fatalf("ListFiles = %v", got)
	}
	if err := d.RemoveFile("nope"); err == nil {
		t.Fatal("removing missing file should fail")
	}
	if _, err := d.OpenFile("b"); err != nil {
		t.Fatal(err)
	}
	d.RemoveFile("b")
	if _, err := d.OpenFile("b"); err == nil {
		t.Fatal("open after remove should fail")
	}
}

func TestNextFileNameUnique(t *testing.T) {
	d := New(NVMParams(1 << 20))
	seen := map[string]bool{}
	var wg sync.WaitGroup
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				n := d.NextFileName("sst")
				mu.Lock()
				if seen[n] {
					t.Errorf("duplicate name %s", n)
				}
				seen[n] = true
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

func TestPageCacheBasics(t *testing.T) {
	c := NewPageCache(4 * PageSize)
	if miss := c.Touch("f", 0, PageSize); miss != 1 {
		t.Fatalf("first touch misses = %d, want 1", miss)
	}
	if miss := c.Touch("f", 0, PageSize); miss != 0 {
		t.Fatalf("second touch misses = %d, want 0", miss)
	}
	// Range spanning 3 pages.
	if miss := c.Touch("f", PageSize-1, 2*PageSize); miss != 2 {
		t.Fatalf("range touch misses = %d, want 2 (page 0 resident)", miss)
	}
	if !c.Contains("f", 2*PageSize) {
		t.Fatal("page 2 should be resident")
	}
}

func TestPageCacheEviction(t *testing.T) {
	c := NewPageCache(2 * PageSize)
	c.Touch("f", 0, PageSize)          // page 0
	c.Touch("f", PageSize, PageSize)   // page 1
	c.Touch("f", 0, PageSize)          // page 0 now MRU
	c.Touch("f", 2*PageSize, PageSize) // page 2 evicts page 1
	if c.Contains("f", PageSize) {
		t.Fatal("page 1 should be evicted (LRU)")
	}
	if !c.Contains("f", 0) {
		t.Fatal("page 0 should survive (was MRU)")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

func TestPageCacheInvalidateFile(t *testing.T) {
	c := NewPageCache(8 * PageSize)
	c.Touch("a", 0, 2*PageSize)
	c.Touch("b", 0, 2*PageSize)
	c.InvalidateFile("a", 2*PageSize)
	if c.Contains("a", 0) || c.Contains("a", PageSize) {
		t.Fatal("file a pages should be gone")
	}
	if !c.Contains("b", 0) {
		t.Fatal("file b pages should remain")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// Invalidating one file must leave every other file's residency AND its
// place in the LRU order alone: the pages evicted afterwards are exactly the
// ones that were least recently used before.
func TestPageCacheInvalidateFileKeepsOthersLRUOrder(t *testing.T) {
	c := NewPageCache(6 * PageSize)
	// LRU → MRU: b0 a0 c0 a1 b1 (a2 is beyond the cache's view of the file:
	// never touched).
	c.Touch("b", 0, PageSize)
	c.Touch("a", 0, PageSize)
	c.Touch("c", 0, PageSize)
	c.Touch("a", PageSize, PageSize)
	c.Touch("b", PageSize, PageSize)
	c.InvalidateFile("a", 3*PageSize-1) // a partial last page still counts
	if c.Contains("a", 0) || c.Contains("a", PageSize) {
		t.Fatal("file a pages should be gone")
	}
	if c.Len() != 3 {
		t.Fatalf("Len = %d, want b0 c0 b1 resident", c.Len())
	}
	// Fill the cache (6 pages), then push one more in: the victim must be
	// b0, the oldest survivor — not c0 or b1.
	c.Touch("d", 0, 3*PageSize)
	c.Touch("e", 0, PageSize)
	if c.Contains("b", 0) {
		t.Fatal("b0 was the LRU page and should have been evicted first")
	}
	for _, pg := range []struct {
		f   string
		off int64
	}{{"c", 0}, {"b", PageSize}, {"d", 0}, {"d", 2 * PageSize}, {"e", 0}} {
		if !c.Contains(pg.f, pg.off) {
			t.Fatalf("page %s@%d should still be resident", pg.f, pg.off)
		}
	}
	c.Touch("f", 0, PageSize)
	if c.Contains("c", 0) || !c.Contains("b", PageSize) {
		t.Fatal("second eviction should take c0, then b1 stays")
	}
	// The freed nodes are reused: hits and misses keep adding up.
	if hits, misses := c.Stats(); hits != 0 || misses != 10 {
		t.Fatalf("hits=%d misses=%d, want 0/10", hits, misses)
	}
}

func TestPageCacheZeroCapacity(t *testing.T) {
	c := NewPageCache(0)
	if miss := c.Touch("f", 0, PageSize); miss != 1 {
		t.Fatalf("zero-cap cache must always miss, got %d", miss)
	}
	if miss := c.Touch("f", 0, PageSize); miss != 1 {
		t.Fatalf("zero-cap cache must always miss, got %d", miss)
	}
	if c.HitRate() != 0 {
		t.Fatalf("hit rate = %f", c.HitRate())
	}
}

// refLRU is the page cache written the obvious way: a list of (file, page)
// entries, most recently used first. PageCache must agree with it on every
// miss count and every eviction.
type refLRU struct {
	cap   int
	pages []refPage
}

type refPage struct {
	file string
	page int64
}

func (r *refLRU) touch(file string, off, n int64) (miss int64) {
	for p := off / PageSize; p <= (off+n-1)/PageSize; p++ {
		k := refPage{file, p}
		i := 0
		for i < len(r.pages) && r.pages[i] != k {
			i++
		}
		if i < len(r.pages) {
			r.pages = append(r.pages[:i], r.pages[i+1:]...)
		} else {
			miss++
			if r.cap <= 0 {
				continue
			}
			if len(r.pages) == r.cap {
				r.pages = r.pages[:r.cap-1]
			}
		}
		r.pages = append([]refPage{k}, r.pages...)
	}
	return miss
}

func (r *refLRU) invalidate(file string, size int64) {
	kept := r.pages[:0]
	for _, pg := range r.pages {
		if pg.file != file || pg.page*PageSize >= size {
			kept = append(kept, pg)
		}
	}
	r.pages = kept
}

// A random run of touches by name and by File, over files that are removed,
// recreated under their old names and invalidated, keeps the cache equal to
// the reference LRU: the same misses, and after every step the same resident
// pages, so every eviction took the same victim.
func TestPageCacheMatchesReferenceLRU(t *testing.T) {
	const capPages = 24
	rng := rand.New(rand.NewSource(3))
	c, ref := NewPageCache(capPages*PageSize), &refLRU{cap: capPages}
	dev := New(NVMParams(1 << 30))
	names := []string{"a", "b", "c", "d", "e"}
	files := map[string]*File{}
	for _, n := range names {
		files[n], _ = dev.CreateFile(n)
	}
	for step := 0; step < 20000; step++ {
		name := names[rng.Intn(len(names))]
		off, n := rng.Int63n(40*PageSize), 1+rng.Int63n(3*PageSize)
		switch r := rng.Intn(100); {
		case r < 2:
			size := rng.Int63n(48 * PageSize)
			c.InvalidateFile(name, size)
			ref.invalidate(name, size)
			continue
		case r < 4:
			// The same name on a new File: its pages stay resident.
			dev.RemoveFile(name)
			files[name], _ = dev.CreateFile(name)
			continue
		case r < 50:
			if got, want := c.Touch(name, off, n), ref.touch(name, off, n); got != want {
				t.Fatalf("step %d: Touch(%s, %d, %d) missed %d, want %d", step, name, off, n, got, want)
			}
		default:
			if got, want := c.TouchFile(files[name], off, n), ref.touch(name, off, n); got != want {
				t.Fatalf("step %d: TouchFile(%s, %d, %d) missed %d, want %d", step, name, off, n, got, want)
			}
		}
		if c.Len() != len(ref.pages) {
			t.Fatalf("step %d: %d pages resident, want %d", step, c.Len(), len(ref.pages))
		}
		for _, pg := range ref.pages {
			if !c.Contains(pg.file, pg.page*PageSize) {
				t.Fatalf("step %d: %s page %d evicted out of LRU order", step, pg.file, pg.page)
			}
		}
	}
	// Invalidating every file empties the cache and its name table.
	for _, n := range append(names, "fresh") {
		c.InvalidateFile(n, 64*PageSize)
	}
	if c.Len() != 0 || len(c.names) != 0 || len(c.freeIDs) != len(c.files) {
		t.Fatalf("after invalidating every file: %d pages, %d names, %d of %d ids free",
			c.Len(), len(c.names), len(c.freeIDs), len(c.files))
	}
}

// A File's cached id outlives its name's entry when the name is invalidated
// and the id goes to another file; the cache must notice and look the name
// up again rather than touch the other file's pages.
func TestPageCacheStaleFileID(t *testing.T) {
	c := NewPageCache(16 * PageSize)
	dev := New(NVMParams(1 << 30))
	a, _ := dev.CreateFile("a")
	if miss := c.TouchFile(a, 0, PageSize); miss != 1 {
		t.Fatalf("first touch missed %d pages, want 1", miss)
	}
	c.InvalidateFile("a", PageSize)
	c.Touch("b", 0, PageSize) // b takes a's freed id
	if miss := c.TouchFile(a, 0, PageSize); miss != 1 {
		t.Fatalf("touch after invalidation missed %d pages, want 1 (read b's page as a's?)", miss)
	}
	if !c.Contains("a", 0) || !c.Contains("b", 0) || c.Len() != 2 {
		t.Fatalf("want a and b page 0 resident, %d pages", c.Len())
	}
}

func TestPageCacheHitRate(t *testing.T) {
	c := NewPageCache(16 * PageSize)
	c.Touch("f", 0, PageSize)
	c.Touch("f", 0, PageSize)
	c.Touch("f", 0, PageSize)
	c.Touch("f", 0, PageSize)
	if hr := c.HitRate(); hr != 0.75 {
		t.Fatalf("hit rate = %f, want 0.75", hr)
	}
	hits, misses := c.Stats()
	if hits != 3 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestAccessClkAdvances(t *testing.T) {
	d := New(QLCParams(1 << 30))
	clk := NewClock()
	lat := d.AccessClk(clk, OpRead, 4096)
	if lat < 391*time.Microsecond {
		t.Fatalf("QLC read latency %v < 391µs", lat)
	}
	if clk.Elapsed() != lat {
		t.Fatalf("clock %v != latency %v", clk.Elapsed(), lat)
	}
}

func TestTierLatencyGap(t *testing.T) {
	// Table 1: ~65× random-read gap between NVM and QLC.
	nvm := New(NVMParams(1 << 30))
	qlc := New(QLCParams(1 << 30))
	nl := nvm.AccessClk(NewClock(), OpRead, 4096)
	ql := qlc.AccessClk(NewClock(), OpRead, 4096)
	ratio := float64(ql) / float64(nl)
	if ratio < 40 || ratio > 90 {
		t.Fatalf("NVM:QLC read gap = %.1fx, want ~65x", ratio)
	}
}

// chunkOf returns a chunk filled with b.
func chunkOf(d *Device, b byte) []byte {
	c := d.Chunk()
	for i := range c {
		c[i] = b
	}
	return c
}

// A chunk handed to AppendChunk becomes the file's storage without a copy,
// Views hands the same memory back out, and the unwritten tail of a partial
// chunk reads as zeros once the file grows over it.
func TestFileAppendChunkAndViews(t *testing.T) {
	d := New(NVMParams(1 << 30))
	f, err := d.CreateFile("f")
	if err != nil {
		t.Fatal(err)
	}
	c0, c1 := chunkOf(d, 1), chunkOf(d, 2)
	if err := f.AppendChunk(c0, len(c0)); err != nil {
		t.Fatal(err)
	}
	if err := f.AppendChunk(c1, 100); err != nil {
		t.Fatal(err)
	}
	if got, want := f.Size(), int64(extentBytes+100); got != want {
		t.Fatalf("size %d, want %d", got, want)
	}
	if err := f.AppendChunk(chunkOf(d, 3), 1); err == nil {
		t.Fatal("a chunk after a partial one must be refused: chunks tile the file")
	}
	views, err := f.Views(nil, extentBytes-10, 60, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || len(views[0]) != 10 || len(views[1]) != 50 {
		t.Fatalf("views %d pieces, want a 10-byte and a 50-byte one", len(views))
	}
	if &views[0][0] != &c0[extentBytes-10] || &views[1][0] != &c1[0] {
		t.Fatal("views must alias the adopted chunks, not copy them")
	}
	if _, err := f.Views(nil, 0, f.Size()+1, nil); err == nil {
		t.Fatal("a view past the end of the file must be refused")
	}
	// Growing the file over the partial chunk's tail exposes zeros, not
	// what the chunk held before.
	if err := f.Truncate(extentBytes + 200); err != nil {
		t.Fatal(err)
	}
	tail := make([]byte, 100)
	if err := f.ReadAt(tail, extentBytes+100); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tail, make([]byte, 100)) {
		t.Fatal("tail of a partial chunk must read as zeros")
	}
}

// A removed file's extents come back out of Chunk, most recent first, and
// the list is bounded; an extent that backs Truncate or Append is zeroed
// first, whatever it held.
func TestExtentRecycling(t *testing.T) {
	d := New(NVMParams(1 << 30))
	f, _ := d.CreateFile("f")
	c0, c1 := chunkOf(d, 7), chunkOf(d, 8)
	f.AppendChunk(c0, len(c0))
	f.AppendChunk(c1, len(c1))
	if err := d.RemoveFile("f"); err != nil {
		t.Fatal(err)
	}
	if got := d.Chunk(); &got[0] != &c1[0] {
		t.Fatal("Chunk should return the most recently recycled extent")
	}
	g, _ := d.CreateFile("g")
	if err := g.Truncate(10); err != nil { // draws c0, still full of 7s
		t.Fatal(err)
	}
	buf := make([]byte, 10)
	g.ReadAt(buf, 0)
	if !bytes.Equal(buf, make([]byte, 10)) {
		t.Fatalf("Truncate exposed recycled bytes %v", buf)
	}
	if _, err := g.Append([]byte{1}); err != nil {
		t.Fatal(err)
	}
	buf = make([]byte, 11)
	g.ReadAt(buf, 0)
	if !bytes.Equal(buf, append(make([]byte, 10), 1)) {
		t.Fatalf("Append over a recycled extent read back %v", buf)
	}

	var many [][]byte
	for i := 0; i < maxFreeExtents+8; i++ {
		many = append(many, make([]byte, extentBytes))
	}
	d.recycle(many...)
	d.recycle(make([]byte, 10)) // not an extent: ignored
	if n := len(d.freeExts); n != maxFreeExtents {
		t.Fatalf("free list holds %d extents, want the cap %d", n, maxFreeExtents)
	}
}

// memBacking is a Backing over byte slices that counts its I/O calls.
type memBacking struct {
	files         map[string]*memBackingFile
	reads, writes int
}

type memBackingFile struct {
	b    *memBacking
	data []byte
}

func (b *memBacking) Create(name string) (BackingFile, error) {
	f := &memBackingFile{b: b}
	b.files[name] = f
	return f, nil
}
func (b *memBacking) Open(name string) (BackingFile, int64, error) {
	f := b.files[name]
	return f, int64(len(f.data)), nil
}
func (b *memBacking) Remove(name string) error     { delete(b.files, name); return nil }
func (b *memBacking) List() ([]BackingInfo, error) { return nil, nil }
func (f *memBackingFile) Truncate(size int64) error {
	f.data = append(f.data, make([]byte, size-int64(len(f.data)))...)
	return nil
}
func (f *memBackingFile) Sync() error  { return nil }
func (f *memBackingFile) Close() error { return nil }
func (f *memBackingFile) ReadAt(p []byte, off int64) error {
	f.b.reads++
	copy(p, f.data[off:])
	return nil
}
func (f *memBackingFile) WriteAt(p []byte, off int64) error {
	f.b.writes++
	if need := int(off) + len(p); need > len(f.data) {
		f.data = append(f.data, make([]byte, need-len(f.data))...)
	}
	copy(f.data[off:], p)
	return nil
}

// On a backed device a chunk costs one WriteAt and goes straight back to the
// free list, and a view of any range costs one ReadAt into the caller's
// buffer, which the next call reuses.
func TestBackedFileChunksAndViews(t *testing.T) {
	d := New(NVMParams(1 << 30))
	b := &memBacking{files: map[string]*memBackingFile{}}
	if err := d.AttachBacking(b); err != nil {
		t.Fatal(err)
	}
	f, err := d.CreateFile("f")
	if err != nil {
		t.Fatal(err)
	}
	c0 := chunkOf(d, 1)
	if err := f.AppendChunk(c0, len(c0)); err != nil {
		t.Fatal(err)
	}
	c1 := d.Chunk()
	if &c1[0] != &c0[0] {
		t.Fatal("a backed file should recycle the chunk once it is written")
	}
	for i := range c1 {
		c1[i] = 2
	}
	if err := f.AppendChunk(c1, 1000); err != nil {
		t.Fatal(err)
	}
	if b.writes != 2 || f.Size() != extentBytes+1000 || d.Used() != extentBytes+1000 {
		t.Fatalf("writes=%d size=%d used=%d, want 2 writes of %d bytes in all", b.writes, f.Size(), d.Used(), extentBytes+1000)
	}

	var buf []byte
	views, err := f.Views(nil, extentBytes-10, 60, &buf)
	if err != nil {
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{1}, 10), bytes.Repeat([]byte{2}, 50)...)
	if len(views) != 1 || !bytes.Equal(views[0], want) || b.reads != 1 {
		t.Fatalf("got %d views after %d reads, want the range as one view from one read", len(views), b.reads)
	}
	first := &views[0][0]
	views, err = f.Views(views[:0], 0, 20, &buf)
	if err != nil || len(views) != 1 || &views[0][0] != first || b.reads != 2 {
		t.Fatalf("second view: err=%v reads=%d; want the caller's buffer reused", err, b.reads)
	}
}
