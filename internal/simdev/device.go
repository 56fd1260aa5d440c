package simdev

import (
	"fmt"
	"sync"
	"time"
)

// PageSize is the I/O granularity of the simulated devices. The paper's
// PrismDB relies on the OS page cache reading and writing NVM at 4 KB
// granularity, and Optane drives write 4 KB pages atomically.
const PageSize = 4096

// Params describes a simulated NVMe device. The default parameter sets
// mirror Table 1 of the paper plus the public data sheets it cites.
type Params struct {
	Name string

	// ReadLatency and WriteLatency are the fixed per-request costs of a
	// 4 KB random access (device time, excluding queueing).
	ReadLatency  time.Duration
	WriteLatency time.Duration

	// ReadBandwidth and WriteBandwidth are sequential throughputs in
	// bytes/second; requests larger than one page pay size/bandwidth on
	// top of the fixed latency.
	ReadBandwidth  int64
	WriteBandwidth int64

	// Channels is the device's internal parallelism: how many requests
	// can be in service simultaneously before queueing begins.
	Channels int

	// Capacity is the usable size in bytes.
	Capacity int64

	// DWPD (drive writes per day) is the endurance rating used for the
	// lifetime model (Fig 12), quoted over WarrantyYears.
	DWPD          float64
	WarrantyYears float64

	// CostPerGB in dollars, for the cost model (Table 2, Fig 9).
	CostPerGB float64
}

// Device characteristics from Table 1 of the paper and the devices used in
// its evaluation (Intel Optane SSD P5800X, Intel 760p TLC, Intel 660p QLC).

// NVMParams returns parameters modeling the Intel Optane SSD P5800X.
func NVMParams(capacity int64) Params {
	return Params{
		Name:           "nvm",
		ReadLatency:    6 * time.Microsecond,
		WriteLatency:   7 * time.Microsecond,
		ReadBandwidth:  6_400 << 20, // ~6.4 GB/s
		WriteBandwidth: 5_500 << 20,
		Channels:       16,
		Capacity:       capacity,
		DWPD:           200,
		WarrantyYears:  5,
		CostPerGB:      2.5,
	}
}

// QLCParams returns parameters modeling the Intel 660p (QLC NAND).
func QLCParams(capacity int64) Params {
	return Params{
		Name:           "qlc",
		ReadLatency:    391 * time.Microsecond,
		WriteLatency:   30 * time.Microsecond, // SLC write cache absorbs bursts
		ReadBandwidth:  1_800 << 20,
		WriteBandwidth: 400 << 20, // sustained post-cache QLC program rate
		Channels:       32,        // NVMe queue parallelism: ~80K read IOPS
		Capacity:       capacity,
		DWPD:           0.1,
		WarrantyYears:  5,
		CostPerGB:      0.1,
	}
}

// TLCParams returns parameters modeling the Intel 760p (TLC NAND), the
// "standard datacenter flash" single-tier baseline in Fig 9.
func TLCParams(capacity int64) Params {
	return Params{
		Name:           "tlc",
		ReadLatency:    120 * time.Microsecond,
		WriteLatency:   30 * time.Microsecond,
		ReadBandwidth:  3_000 << 20,
		WriteBandwidth: 800 << 20,
		Channels:       32,
		Capacity:       capacity,
		DWPD:           1,
		WarrantyYears:  5,
		CostPerGB:      0.31,
	}
}

// OpKind distinguishes reads from writes for accounting.
type OpKind int

const (
	// OpRead is a device read.
	OpRead OpKind = iota
	// OpWrite is a device write.
	OpWrite
)

// Stats aggregates device activity since creation (or the last Reset).
type Stats struct {
	ReadOps    int64
	WriteOps   int64
	ReadBytes  int64
	WriteBytes int64
	// BusyTime is total channel-occupancy time, for utilisation metrics.
	BusyTime time.Duration
	// QueueTime is total time requests spent waiting for a free channel.
	QueueTime time.Duration
}

// Device is a simulated NVMe device: a queueing model plus an in-memory
// backing store of named files. All methods are safe for concurrent use.
type Device struct {
	params Params

	mu sync.Mutex
	// Foreground and background I/O are scheduled on separate planes of
	// equal width. The split exists to keep virtual-time causality: a
	// background job that runs ahead in virtual time must not reserve
	// the lanes a foreground request issued "earlier" will need (real
	// devices prioritize foreground I/O over compaction traffic).
	channels   laneSet
	bgChannels laneSet
	stats      Stats
	wearB      int64 // lifetime bytes written (never reset)
	files      map[string]*File
	backing    Backing // nil = in-memory extents (the default)
	used       int64   // bytes allocated across files
	seq        int64   // for generated file names

	// freeExts is the LIFO free list of extents from removed files (see
	// Chunk); freeMu guards it alone, so recycling never waits behind
	// request scheduling on mu.
	freeMu   sync.Mutex
	freeExts [][]byte
}

// New creates a device with the given parameters.
func New(p Params) *Device {
	if p.Channels <= 0 {
		p.Channels = 1
	}
	return &Device{
		params:     p,
		channels:   newLaneSet(p.Channels),
		bgChannels: newLaneSet(p.Channels),
		files:      make(map[string]*File),
	}
}

// maxLaneBusy bounds the busy intervals each lane remembers; the arrays
// stay fixed-size so scheduling never allocates. A lane forgets its oldest
// interval first, and forgotten time counts as idle.
const maxLaneBusy = 32

// span is one busy interval [s, e) of a lane.
type span struct{ s, e int64 }

// lane is one service channel of a device or CPU pool: the intervals it is
// busy, disjoint and sorted by start, the last ending at its frontier.
// Requests arrive out of timestamp order all the time: each partition has
// its own clock, the serial driver starts the next op before the previous
// op's later requests, and a compaction clock starts at its own partition's
// time. A request arriving behind the frontier starts in the first idle
// time after its arrival that holds it, not behind work that is logically
// later. Forgotten time counts as idle because the opposite error is the
// costly one on a mostly idle device: counting forgotten idle time as busy
// queued the goldens' Fig 6 background NVM requests five times longer than
// the device was busy. At 32 intervals per lane no golden and no
// paper-ycsb-a digit differs from 2048. For arrivals in timestamp order
// this is a frontier-only model.
type lane struct {
	freeAt, lastS int64 // the frontier, and the start of the interval ending there
	n             int
	busy          [maxLaneBusy]span
}

// fit returns the earliest start at or after now at which the lane is idle
// for svc, and the index its interval would be inserted at. The caller has
// checked that now is before lastS.
func (l *lane) fit(now, svc int64) (start int64, at int) {
	// The first interval ending after now (arrivals are mostly just behind
	// the frontier, so search from the end), then walk the idle holes.
	lo := l.n - 1
	for lo > 0 && l.busy[lo-1].e > now {
		lo--
	}
	start = now
	for at = lo; at < l.n && start+svc > l.busy[at].s; at++ {
		start = max(start, l.busy[at].e)
	}
	return start, at
}

// reserve records [s, e) as busy at index at (see fit), merging it into a
// touching neighbor. A full lane forgets its oldest interval.
func (l *lane) reserve(s, e int64, at int) {
	b := &l.busy
	switch {
	case at > 0 && b[at-1].e == s:
		b[at-1].e = e
		if at < l.n && b[at].s == e {
			b[at-1].e = b[at].e
			copy(b[at:l.n-1], b[at+1:l.n])
			l.n--
		}
	case at < l.n && b[at].s == e:
		b[at].s = s
	case l.n < maxLaneBusy:
		copy(b[at+1:l.n+1], b[at:l.n])
		b[at] = span{s, e}
		l.n++
	case at > 0: // full: forget the oldest (at 0, the new one is the oldest)
		copy(b[:at-1], b[1:at])
		b[at-1] = span{s, e}
	}
	l.freeAt, l.lastS = b[l.n-1].e, b[l.n-1].s
}

// laneSet is a device's or CPU pool's lanes, plus their indices in order of
// frontier (ties by index), so that schedule can usually stop at the first
// lane it looks at.
type laneSet struct {
	lanes []lane
	order []int
}

func newLaneSet(n int) laneSet {
	ls := laneSet{lanes: make([]lane, n), order: make([]int, n)}
	for i := range ls.order {
		ls.order[i] = i
	}
	return ls
}

// schedule places a request of duration svc arriving at logical time now
// on the lane that can start it earliest, ties going to the lane that
// freed up earliest, and returns its start time. Walking the lanes in
// frontier order, a lane with no idle hole after now starts the request at
// max(now, its frontier), which no later such lane beats; only lanes with
// holes after now need a search, and a start at now ends the walk.
func schedule(ls *laneSet, now, svc int64) (start int64) {
	best, at, holesOnly := -1, 0, false
	for p, i := range ls.order {
		l := &ls.lanes[i]
		var s int64
		var a int
		switch {
		case now >= l.lastS:
			if holesOnly {
				continue
			}
			holesOnly = true
			s, a = max(now, l.freeAt), l.n
		default:
			s, a = l.fit(now, svc)
		}
		if best < 0 || s < start {
			best, start, at = p, s, a
			if s == now {
				break
			}
		}
	}
	i := ls.order[best]
	ls.lanes[i].reserve(start, start+svc, at)
	// The lane's frontier only grows: move it right to its place.
	o, f := ls.order, ls.lanes[i].freeAt
	for best+1 < len(o) {
		j := o[best+1]
		if g := ls.lanes[j].freeAt; g > f || g == f && j > i {
			break
		}
		o[best] = j
		best++
	}
	o[best] = i
	return start
}

// Params returns the device's configuration.
func (d *Device) Params() Params { return d.params }

// Stats returns a snapshot of accumulated statistics.
func (d *Device) Stats() Stats {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.stats
}

// ResetStats zeroes the running statistics (wear accounting is preserved, as
// it models physical cell wear). Harnesses call this between the warm-up and
// measurement phases.
func (d *Device) ResetStats() {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.stats = Stats{}
}

// WearBytes returns lifetime bytes written to the device, for the endurance
// model. Unlike Stats, it survives ResetStats.
func (d *Device) WearBytes() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.wearB
}

// Used returns the bytes currently allocated on the device.
func (d *Device) Used() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// Free returns the unallocated capacity in bytes.
func (d *Device) Free() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.params.Capacity - d.used
}

// serviceTime computes how long a request of n bytes occupies a channel.
func (d *Device) serviceTime(kind OpKind, n int64) time.Duration {
	if n < PageSize {
		n = PageSize
	}
	var lat time.Duration
	var bw int64
	switch kind {
	case OpRead:
		lat, bw = d.params.ReadLatency, d.params.ReadBandwidth
	default:
		lat, bw = d.params.WriteLatency, d.params.WriteBandwidth
	}
	if bw <= 0 {
		return lat
	}
	return lat + time.Duration(n*int64(time.Second)/bw)
}

// Access schedules a request of n bytes issued at logical time now and
// returns its completion time. Queueing across the device's channels is the
// only cross-worker interaction, which keeps the model composable: any
// number of partition workers and background compaction jobs can share a
// device.
func (d *Device) Access(now int64, kind OpKind, n int64) (completion int64) {
	return d.access(now, kind, n, false)
}

func (d *Device) access(now int64, kind OpKind, n int64, bg bool) (completion int64) {
	svc := int64(d.serviceTime(kind, n))
	d.mu.Lock()
	lanes := &d.channels
	if bg {
		lanes = &d.bgChannels
	}
	start := schedule(lanes, now, svc)
	completion = start + svc
	d.stats.BusyTime += time.Duration(svc)
	d.stats.QueueTime += time.Duration(start - now)
	if kind == OpRead {
		d.stats.ReadOps++
		d.stats.ReadBytes += n
	} else {
		d.stats.WriteOps++
		d.stats.WriteBytes += n
		d.wearB += n
	}
	d.mu.Unlock()
	return completion
}

// AccessClk issues a request and advances the worker's clock to completion,
// returning the request latency.
func (d *Device) AccessClk(clk *Clock, kind OpKind, n int64) time.Duration {
	start := clk.Now()
	done := d.access(start, kind, n, clk.Background())
	clk.AdvanceTo(done)
	return time.Duration(done - start)
}

// CPUPool models a fixed set of CPU cores as occupancy channels: work
// charged to a foreground clock queues when all cores are busy, reproducing
// the paper's 10-core cgroup bottleneck (§7) where foreground requests and
// background compactions contend for the same cores.
type CPUPool struct {
	mu    sync.Mutex
	cores laneSet // foreground cores
	busy  time.Duration
}

// NewCPUPool creates a pool with the given core count. Foreground requests
// contend for the full pool; background (compaction) CPU advances its own
// job clock without queueing here — each compaction models a dedicated
// thread whose CPU time extends the job's duration, while cross-job core
// oversubscription is second-order for these I/O-dominated jobs.
func NewCPUPool(cores int) *CPUPool {
	if cores < 1 {
		cores = 1
	}
	return &CPUPool{cores: newLaneSet(cores)}
}

// Charge occupies CPU time (on the lane class matching the clock's
// priority) and advances the clock to completion.
func (c *CPUPool) Charge(clk *Clock, dur time.Duration) {
	if c == nil || dur <= 0 {
		clk.Advance(dur)
		return
	}
	start := clk.Now()
	c.mu.Lock()
	// Background jobs burn their own thread's time; see NewCPUPool.
	if !clk.Background() {
		start = schedule(&c.cores, start, int64(dur))
	}
	c.busy += dur
	c.mu.Unlock()
	clk.AdvanceTo(start + int64(dur))
}

// BusyTime returns total CPU time consumed.
func (c *CPUPool) BusyTime() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.busy
}

// TotalWriteBudget returns the device's rated lifetime write budget in
// bytes (TBW): capacity × DWPD × 365 × warranty years.
func (d *Device) TotalWriteBudget() float64 {
	p := d.params
	return float64(p.Capacity) * p.DWPD * 365 * p.WarrantyYears
}

// LifetimeYears estimates how long the device lasts if the application
// writes bytesPerDay to it, capped at none (callers may cap at warranty).
func (d *Device) LifetimeYears(bytesPerDay float64) float64 {
	if bytesPerDay <= 0 {
		return d.params.WarrantyYears
	}
	return d.TotalWriteBudget() / bytesPerDay / 365
}

// Cost returns the device's capital cost in dollars.
func (d *Device) Cost() float64 {
	return float64(d.params.Capacity) / (1 << 30) * d.params.CostPerGB
}

// allocate reserves n bytes of capacity, failing when the device is full.
func (d *Device) allocate(n int64) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.used+n > d.params.Capacity {
		return fmt.Errorf("simdev: device %s full: used %d + %d > capacity %d",
			d.params.Name, d.used, n, d.params.Capacity)
	}
	d.used += n
	return nil
}

// release returns n bytes of capacity.
func (d *Device) release(n int64) {
	d.mu.Lock()
	d.used -= n
	if d.used < 0 {
		d.used = 0
	}
	d.mu.Unlock()
}
