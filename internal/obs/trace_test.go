package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// finishSpan drives the deterministic internal finish path with an explicit
// total, so ordering tests don't depend on wall timing.
func finishSpan(t *Tracer, op string, key string, total time.Duration) {
	smp := t.NewSampler()
	sp := smp.Sample()
	if sp == nil {
		panic("sampler must fire with every=1")
	}
	sp.SetOp(op, []byte(key))
	t.finish(sp, total)
}

func TestSlowlogOrderingAndReset(t *testing.T) {
	tr := NewTracer(1, 4, 8)
	finishSpan(tr, "get", "k1", 10*time.Microsecond)
	finishSpan(tr, "set", "k2", 50*time.Microsecond)
	finishSpan(tr, "get", "k3", 30*time.Microsecond)
	finishSpan(tr, "del", "k4", 50*time.Microsecond) // tie with k2: earlier finish first
	finishSpan(tr, "get", "k5", 5*time.Microsecond)
	finishSpan(tr, "get", "k6", 40*time.Microsecond)

	if n := tr.SlowLen(); n != 4 {
		t.Fatalf("SlowLen = %d, want 4 (capacity)", n)
	}
	got := tr.Slow(0)
	wantKeys := []string{"k2", "k4", "k6", "k3"} // 50(id2), 50(id4), 40, 30; k5+k1 evicted
	for i, rec := range got {
		if rec.Key != wantKeys[i] {
			t.Fatalf("slow[%d] = %s (%v), want %s; full: %+v", i, rec.Key, rec.Total, wantKeys[i], got)
		}
	}
	if got[0].ID >= got[1].ID {
		t.Fatalf("tie must order by finish sequence: %d vs %d", got[0].ID, got[1].ID)
	}
	if sub := tr.Slow(2); len(sub) != 2 || sub[0].Key != "k2" || sub[1].Key != "k4" {
		t.Fatalf("Slow(2) = %+v", sub)
	}

	tr.SlowReset()
	if tr.SlowLen() != 0 || len(tr.Slow(0)) != 0 {
		t.Fatal("reset must clear the slowlog")
	}
	finishSpan(tr, "get", "k7", time.Microsecond)
	got = tr.Slow(0)
	if len(got) != 1 || got[0].Key != "k7" || got[0].ID != 7 {
		t.Fatalf("post-reset: %+v (IDs keep counting)", got)
	}
}

func TestRecentRing(t *testing.T) {
	tr := NewTracer(1, 4, 3)
	for i := 1; i <= 5; i++ {
		finishSpan(tr, "get", fmt.Sprintf("k%d", i), time.Duration(i)*time.Microsecond)
	}
	got := tr.Recent(0)
	if len(got) != 3 || got[0].Key != "k5" || got[1].Key != "k4" || got[2].Key != "k3" {
		t.Fatalf("Recent = %+v", got)
	}
	if one := tr.Recent(1); len(one) != 1 || one[0].Key != "k5" {
		t.Fatalf("Recent(1) = %+v", one)
	}
}

// A Sampler samples at its tracer's rate, counting only its own calls: two
// interleaved samplers each take their own every-th call.
func TestSamplingRate(t *testing.T) {
	tr := NewTracer(4, 8, 8)
	a, b := tr.NewSampler(), tr.NewSampler()
	var got []int
	for i := 1; i <= 100; i++ {
		if sp := a.Sample(); sp != nil {
			got = append(got, i)
			tr.Drop(sp)
		}
		if i <= 12 {
			if sp := b.Sample(); sp != nil {
				got = append(got, -i)
				tr.Drop(sp)
			}
		}
	}
	if len(got) != 28 || fmt.Sprint(got[:6]) != "[4 -4 8 -8 12 -12]" {
		t.Fatalf("every=4 samplers sampled calls %v", got)
	}
	every := NewTracer(1, 8, 8).NewSampler()
	if every.Sample() == nil || every.Sample() == nil {
		t.Fatal("every=1 must sample every call")
	}
	off := NewTracer(0, 8, 8).NewSampler()
	var zero Sampler
	var nilTracer *Tracer
	nilS := nilTracer.NewSampler()
	if off.Sample() != nil || zero.Sample() != nil || nilS.Sample() != nil {
		t.Fatal("every=0, a zero Sampler and a nil tracer must never sample")
	}
}

func TestSpanStagesAndSummary(t *testing.T) {
	tr := NewTracer(1, 4, 4)
	smp := tr.NewSampler()
	sp := smp.Sample()
	sp.SetOp("set", []byte(strings.Repeat("x", 100)))
	sp.SetTier("")
	sp.Stage(StageParse, 2*time.Microsecond)
	sp.Stage(StageFsyncWait, time.Millisecond)
	sp.Stage(StageFsyncWait, time.Millisecond) // accumulates
	tr.finish(sp, 3*time.Millisecond)

	rec := tr.Slow(1)[0]
	if rec.Op != "set" || len(rec.Key) != traceKeyMax || !rec.Trunc {
		t.Fatalf("record: %+v", rec)
	}
	if rec.Stages[StageFsyncWait] != 2*time.Millisecond {
		t.Fatalf("fsync stage = %v", rec.Stages[StageFsyncWait])
	}
	sum := rec.StageSummary()
	if !strings.Contains(sum, "parse=2µs") || !strings.Contains(sum, "fsync_wait=2ms") {
		t.Fatalf("summary: %q", sum)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(2, 16, 16)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			smp := tr.NewSampler()
			for i := 0; i < 1000; i++ {
				sp := smp.Sample()
				if sp == nil {
					continue
				}
				sp.SetOp("get", []byte("key"))
				sp.Stage(StageDispatch, time.Microsecond)
				tr.Finish(sp)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			tr.Slow(0)
			tr.Recent(0)
			tr.SlowLen()
		}
	}()
	wg.Wait()
	<-done
	if tr.SlowLen() == 0 {
		t.Fatal("no spans retained")
	}
}
