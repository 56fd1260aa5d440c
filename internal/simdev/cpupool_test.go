package simdev

import (
	"testing"
	"time"
)

func TestCPUPoolSerializesWhenSaturated(t *testing.T) {
	p := NewCPUPool(2)
	// Three concurrent 10µs charges at t=0 on 2 cores: the third queues.
	c1, c2, c3 := NewClock(), NewClock(), NewClock()
	p.Charge(c1, 10*time.Microsecond)
	p.Charge(c2, 10*time.Microsecond)
	p.Charge(c3, 10*time.Microsecond)
	d1, d2, d3 := c1.Now(), c2.Now(), c3.Now()
	if d1 != 10000 || d2 != 10000 {
		t.Fatalf("first two charges should run in parallel: %d, %d", d1, d2)
	}
	if d3 != 20000 {
		t.Fatalf("third charge should queue: %d, want 20000", d3)
	}
	if p.BusyTime() != 30*time.Microsecond {
		t.Fatalf("busy = %v", p.BusyTime())
	}
}

func TestCPUPoolBackgroundSelfClocked(t *testing.T) {
	p := NewCPUPool(1)
	// Saturate the foreground core far into the future.
	p.Charge(NewClock(), time.Second)
	// A background charge must not queue behind it: compactions model a
	// dedicated thread that burns its own duration.
	bg := NewBGClock()
	p.Charge(bg, 5*time.Microsecond)
	if done := bg.Now(); done != 5000 {
		t.Fatalf("background charge queued: done=%d, want 5000", done)
	}
}

func TestCPUPoolChargeRoutesByClockPriority(t *testing.T) {
	p := NewCPUPool(1)
	fg := NewClock()
	bg := NewBGClock()
	p.Charge(fg, 10*time.Microsecond)
	p.Charge(bg, 10*time.Microsecond) // must not wait behind fg's booking
	if bg.Now() != 10000 {
		t.Fatalf("bg clock = %d, want 10000", bg.Now())
	}
	// Second fg charge queues behind the first.
	fg2 := NewClock()
	p.Charge(fg2, 10*time.Microsecond)
	if fg2.Now() != 20000 {
		t.Fatalf("fg2 clock = %d, want 20000 (queued)", fg2.Now())
	}
}

func TestCPUPoolNilCharge(t *testing.T) {
	var p *CPUPool
	clk := NewClock()
	p.Charge(clk, 7*time.Microsecond) // nil pool degrades to plain advance
	if clk.Now() != 7000 {
		t.Fatalf("nil pool charge: %d", clk.Now())
	}
}

func TestCPUPoolZeroAndNegative(t *testing.T) {
	p := NewCPUPool(0) // clamped to 1 core
	clk := NewClock()
	clk.AdvanceTo(100)
	p.Charge(clk, 0)
	if clk.Now() != 100 {
		t.Fatalf("zero charge moved time: %d", clk.Now())
	}
	p.Charge(clk, -time.Second)
	if clk.Now() != 100 {
		t.Fatalf("negative charge moved time: %d", clk.Now())
	}
}

func TestBGDeviceLanesIsolatedFromForeground(t *testing.T) {
	d := New(Params{Name: "x", ReadLatency: 100 * time.Microsecond, Channels: 1, Capacity: 1 << 20})
	// Two background jobs book the background lane far ahead.
	d.AccessClk(NewBGClock(), OpRead, 4096)
	d.AccessClk(NewBGClock(), OpRead, 4096)
	// Foreground access at t=0 must not queue behind background lanes.
	done := d.Access(0, OpRead, 4096)
	if done > int64(150*time.Microsecond) {
		t.Fatalf("foreground queued behind background: %d", done)
	}
	// A background clock routed through AccessClk queues on the bg lane
	// (already busy until 200µs from the two bookings above).
	bg := NewBGClock()
	d.AccessClk(bg, OpRead, 4096)
	if bg.Now() <= int64(200*time.Microsecond) {
		t.Fatalf("bg access should queue on bg lanes: %d", bg.Now())
	}
}
