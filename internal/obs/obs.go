// Package obs is the telemetry subsystem: a lock-free metrics registry
// (padded atomic counters and gauges, plus named internal/metrics
// histograms, which own the one histogram implementation), the Series
// tables that render INFO sections and /metrics from one declaration per
// number, a Prometheus text-format exposition endpoint with pprof, a sampled
// per-op span tracer feeding a SLOWLOG ring, and a bounded structured event
// log.
//
// Everything on a recording path is allocation-free and lock-free:
// Counter.Inc/Add, Gauge.Set/Add, and metrics.Histogram.Record/Observe are a
// handful of atomic operations on padded cache lines, safe to call from the
// engine's GET/SET hot paths without disturbing the 0-allocs/op guarantees.
// Reading — Registry.Gather, EventLog.Tail — is the slow path and may
// allocate freely.
//
// The package depends only on internal/metrics and the standard library, so
// storage, core, and server can all import it without cycles.
package obs

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/prismdb/prismdb/internal/metrics"
)

// pad is the cache-line padding unit. 128 covers the spatial-prefetcher
// pair-of-lines granularity on current x86 (same constant as the engine's
// sharded read counters).
const pad = 128

// Counter is a monotonically increasing counter on its own cache line(s),
// so unrelated counters registered next to each other never false-share.
type Counter struct {
	_ [pad - 8]byte
	n atomic.Int64
	_ [pad - 8]byte

	name, help string
}

// Inc adds 1.
func (c *Counter) Inc() { c.n.Add(1) }

// Add adds n (n must be ≥ 0 for the value to stay monotonic).
func (c *Counter) Add(n int64) { c.n.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.n.Load() }

// Gauge is an instantaneous value (queue depth, live connections).
type Gauge struct {
	_ [pad - 8]byte
	n atomic.Int64
	_ [pad - 8]byte

	name, help string
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.n.Store(v) }

// Add adds delta (may be negative).
func (g *Gauge) Add(delta int64) { g.n.Add(delta) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.n.Load() }

// Unit declares what a series' or histogram's values are, and so how each
// surface renders them. Duration units carry nanoseconds (time.Duration):
// /metrics exports them in seconds, the Prometheus base unit, while INFO
// prints the scale its key names.
type Unit int

const (
	// UnitCount (the zero value): a dimensionless count (ops, bytes, batch
	// sizes); INFO prints an integer.
	UnitCount Unit = iota
	// UnitSeconds: nanoseconds; INFO prints seconds to 0.1.
	UnitSeconds
	// UnitMillis: nanoseconds; INFO prints milliseconds to 0.001.
	UnitMillis
	// UnitMicros: nanoseconds; INFO prints microseconds to 0.1.
	UnitMicros
	// UnitRatio: a fraction; INFO prints it to 0.0001.
	UnitRatio
)

// base is what /metrics divides a value by: 1e9 turns nanoseconds into
// seconds.
func (u Unit) base() float64 {
	if u == UnitCount || u == UnitRatio {
		return 1
	}
	return 1e9
}

// format renders v the way INFO prints a value of this unit.
func (u Unit) format(v float64) string {
	switch u {
	case UnitCount:
		return strconv.FormatInt(int64(v), 10)
	case UnitMillis:
		return strconv.FormatFloat(v/1e6, 'f', 3, 64)
	case UnitMicros:
		return strconv.FormatFloat(v/1e3, 'f', 1, 64)
	case UnitRatio:
		return strconv.FormatFloat(v, 'f', 4, 64)
	}
	return strconv.FormatFloat(v/1e9, 'f', 1, 64)
}

// Registry holds named instruments plus snapshot collectors. Registration
// takes a mutex (startup only); recording into registered instruments is
// lock-free; Gather takes the mutex briefly to copy the instrument lists.
type Registry struct {
	mu         sync.Mutex
	names      map[string]bool
	counters   []*Counter
	gauges     []*Gauge
	hists      []HistPoint // Hist is the live histogram; Gather snapshots it
	collectors []func(*Gathered)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: map[string]bool{}}
}

func (r *Registry) claim(name string) {
	if r.names[name] {
		panic("obs: duplicate metric name " + name)
	}
	r.names[name] = true
}

// Counter registers and returns a counter. Names follow the Prometheus data
// model and may carry a fixed label set inline: `prism_ops_total{op="get"}`.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{name: name, help: help}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.counters = append(r.counters, c)
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{name: name, help: help}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.gauges = append(r.gauges, g)
	return g
}

// Histogram registers and returns a histogram; the registry keeps its name,
// help and unit beside it.
func (r *Registry) Histogram(name, help string, unit Unit) *metrics.Histogram {
	h := metrics.NewHistogram()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name)
	r.hists = append(r.hists, HistPoint{Name: name, Help: help, Unit: unit, Hist: h})
	return h
}

// Collect registers a snapshot collector: a function invoked once per Gather
// that contributes point-in-time series (typically read off an existing
// stats struct, so subsystems keep ONE source of truth and both /metrics and
// INFO render from the same sweep).
func (r *Registry) Collect(fn func(*Gathered)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, fn)
}

// Point is one gathered counter or gauge sample.
type Point struct {
	Name    string
	Help    string
	Value   float64
	IsGauge bool
}

// HistPoint is one gathered histogram: a frozen snapshot plus unit.
type HistPoint struct {
	Name string
	Help string
	Unit Unit
	Hist *metrics.Histogram
}

// Gathered is a point-in-time snapshot of every registered series, sorted by
// name (deterministic exposition and INFO rendering).
type Gathered struct {
	Points []Point
	Hists  []HistPoint
}

// Counter appends a counter sample (collector helper).
func (g *Gathered) Counter(name, help string, v int64) {
	g.Points = append(g.Points, Point{Name: name, Help: help, Value: float64(v)})
}

// Gauge appends a gauge sample (collector helper).
func (g *Gathered) Gauge(name, help string, v float64) {
	g.Points = append(g.Points, Point{Name: name, Help: help, Value: v, IsGauge: true})
}

// Histogram appends a histogram sample (collector helper).
func (g *Gathered) Histogram(name, help string, unit Unit, h *metrics.Histogram) {
	g.Hists = append(g.Hists, HistPoint{Name: name, Help: help, Unit: unit, Hist: h})
}

// Find returns the gathered point named name, or false.
func (g *Gathered) Find(name string) (Point, bool) {
	for _, p := range g.Points {
		if p.Name == name {
			return p, true
		}
	}
	return Point{}, false
}

// FindHist returns the gathered histogram named name, or nil.
func (g *Gathered) FindHist(name string) *metrics.Histogram {
	for _, h := range g.Hists {
		if h.Name == name {
			return h.Hist
		}
	}
	return nil
}

// Gather snapshots every instrument and runs the collectors.
func (r *Registry) Gather() *Gathered {
	r.mu.Lock()
	counters := append([]*Counter(nil), r.counters...)
	gauges := append([]*Gauge(nil), r.gauges...)
	hists := append([]HistPoint(nil), r.hists...)
	collectors := append(make([]func(*Gathered), 0, len(r.collectors)), r.collectors...)
	r.mu.Unlock()

	g := &Gathered{}
	for _, c := range counters {
		g.Counter(c.name, c.help, c.Value())
	}
	for _, ga := range gauges {
		g.Gauge(ga.name, ga.help, float64(ga.Value()))
	}
	for _, h := range hists {
		g.Histogram(h.Name, h.Help, h.Unit, h.Hist.Snapshot())
	}
	for _, fn := range collectors {
		fn(g)
	}
	sort.SliceStable(g.Points, func(i, j int) bool { return g.Points[i].Name < g.Points[j].Name })
	sort.SliceStable(g.Hists, func(i, j int) bool { return g.Hists[i].Name < g.Hists[j].Name })
	return g
}
