package obs

import (
	"strings"
	"testing"
	"time"
)

// Hot-path recording must be allocation-free.
func TestRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h_seconds", "", UnitSeconds)
	if n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		g.Set(7)
		g.Add(-1)
		h.Record(123 * time.Microsecond)
		h.Observe(17)
	}); n != 0 {
		t.Fatalf("recording allocates: %v allocs/op", n)
	}
}

func TestRegistryGather(t *testing.T) {
	r := NewRegistry()
	c := r.Counter(`ops_total{op="get"}`, "ops")
	g := r.Gauge("depth", "queue depth")
	h := r.Histogram("lat_seconds", "latency", UnitSeconds)
	r.Collect(func(out *Gathered) {
		out.Counter("collected_total", "", 5)
		out.Gauge("ratio", "", 0.25)
	})
	c.Add(3)
	g.Set(9)
	h.Record(time.Millisecond)

	snap := r.Gather()
	if p, ok := snap.Find(`ops_total{op="get"}`); !ok || p.Value != 3 || p.IsGauge {
		t.Fatalf("counter: %+v ok=%v", p, ok)
	}
	if p, ok := snap.Find("depth"); !ok || p.Value != 9 || !p.IsGauge {
		t.Fatalf("gauge: %+v ok=%v", p, ok)
	}
	if p, ok := snap.Find("collected_total"); !ok || p.Value != 5 {
		t.Fatalf("collected counter: %+v ok=%v", p, ok)
	}
	if p, ok := snap.Find("ratio"); !ok || p.Value != 0.25 {
		t.Fatalf("collected gauge: %+v ok=%v", p, ok)
	}
	if hh := snap.FindHist("lat_seconds"); hh == nil || hh.Count() != 1 {
		t.Fatalf("hist: %v", hh)
	}
	// Sorted by name.
	for i := 1; i < len(snap.Points); i++ {
		if snap.Points[i-1].Name > snap.Points[i].Name {
			t.Fatalf("points not sorted: %q > %q", snap.Points[i-1].Name, snap.Points[i].Name)
		}
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate name")
		}
	}()
	r.Counter("dup", "")
}

func TestNilInstrumentsSafe(t *testing.T) {
	var l *EventLog
	l.Emit("x", "k", 1)
	if l.Tail(5) != nil || l.Total() != 0 {
		t.Fatal("nil event log should be empty")
	}
	var tr *Tracer
	smp := tr.NewSampler()
	if smp.Sample() != nil || tr.SlowLen() != 0 || tr.Slow(1) != nil || tr.Recent(1) != nil {
		t.Fatal("nil tracer should be inert")
	}
	tr.Finish(nil)
	tr.Drop(nil)
	tr.SlowReset()
	var sp *Span
	sp.Stage(StageParse, time.Second)
	sp.SetOp("get", []byte("k"))
	sp.SetTier("nvm")
}

// TestSeriesRendering pins what a unit does on each surface: INFO keeps the
// scale its key names, /metrics exports durations in seconds.
func TestSeriesRendering(t *testing.T) {
	type sweep struct{ n int64 }
	read := func(s sweep) float64 { return float64(s.n) }
	rows := []Series[sweep]{
		{Section: "a", Key: "count", Name: "c_total", Unit: UnitCount, Read: read},
		{Section: "a", Key: "wall_ms", Name: "w_seconds_total", Unit: UnitMillis, Read: read},
		{Section: "b", Key: "elsewhere", Name: "e", Unit: UnitCount, Read: read},
		{Section: "a", Key: "lat_us", Unit: UnitMicros, Read: read},
		{Section: "a", Key: "up_seconds", Name: "up_seconds", Unit: UnitSeconds, Gauge: true, Read: read},
		{Section: "a", Key: "share", Name: "share", Unit: UnitRatio, Gauge: true, Read: func(sweep) float64 { return 0.25 }},
	}
	s := sweep{n: 1_234_567_890}
	var b strings.Builder
	WriteInfo(&b, "a", rows, s)
	want := "# a\r\ncount:1234567890\r\nwall_ms:1234.568\r\nlat_us:1234567.9\r\nup_seconds:1.2\r\nshare:0.2500\r\n\r\n"
	if b.String() != want {
		t.Fatalf("INFO section:\n%q\nwant\n%q", b.String(), want)
	}
	var g Gathered
	Export(&g, rows, s)
	if len(g.Points) != 5 {
		t.Fatalf("exported %d points, want 5 (the row without a name stays INFO-only)", len(g.Points))
	}
	for name, v := range map[string]float64{"c_total": 1234567890, "w_seconds_total": 1.23456789, "up_seconds": 1.23456789, "share": 0.25} {
		if p, ok := g.Find(name); !ok || p.Value != v {
			t.Fatalf("%s = %+v, want %v", name, p, v)
		}
	}
	if p, _ := g.Find("up_seconds"); !p.IsGauge {
		t.Fatal("gauge row exported as a counter")
	}
}
