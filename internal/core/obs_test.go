package core

import (
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/obs"
)

// TestObsRegistryAlwaysLive verifies that a DB opened with nil
// Options.Metrics/Events still records into private instruments (the
// benchmark-honesty property: instrument cost is always paid), and that a
// caller-supplied registry receives the engine series.
func TestObsRegistryAlwaysLive(t *testing.T) {
	reg := obs.NewRegistry()
	ev := obs.NewEventLog(64)
	o := testOptions()
	o.Metrics = reg
	o.Events = ev
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.Registry() != reg || db.Events() != ev {
		t.Fatal("DB must adopt the caller's registry and event log")
	}
	for i := 0; i < 200; i++ {
		if _, err := db.Put(key(i), val(i, 100)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, _, _, err := db.Get(key(i)); err != nil {
			t.Fatal(err)
		}
	}
	g := db.Registry().Gather()
	p, ok := g.Find(`prism_engine_ops_total{op="put"}`)
	if !ok || p.Value != 200 {
		t.Fatalf("put counter = %+v, want 200", p)
	}
	h := g.FindHist("prism_write_batch_ops")
	if h == nil || h.Count() != 200 {
		t.Fatalf("write batch hist count = %v, want 200", h)
	}
	// Same numbers as Stats(): the collector is a view over it.
	if s := db.Stats(); s.Puts != 200 || s.Gets != 200 {
		t.Fatalf("stats disagree with registry: %+v", s)
	}
}

// TestObsPrivateRegistry: nil Metrics still yields a live, gatherable
// registry on the DB.
func TestObsPrivateRegistry(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Put(key(1), val(1, 64)); err != nil {
		t.Fatal(err)
	}
	g := db.Registry().Gather()
	if p, ok := g.Find(`prism_engine_ops_total{op="put"}`); !ok || p.Value != 1 {
		t.Fatalf("private registry missing put counter: %+v", p)
	}
	if db.Events() == nil {
		t.Fatal("private event log missing")
	}
}

// TestOpTraceStages drives traced writes and checks the stage accounting
// documented on OpTrace.
func TestOpTraceStages(t *testing.T) {
	o := testOptions()
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	var tr OpTrace
	if _, err := db.PutTraced(key(1), val(1, 100), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Apply <= 0 {
		t.Fatalf("uncontended traced put must bill Apply, got %+v", tr)
	}
	tr = OpTrace{}
	if _, err := db.DeleteTraced(key(1), &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Apply <= 0 {
		t.Fatalf("traced delete must bill Apply, got %+v", tr)
	}

	// Contended: spin writers so traced ops queue for a batch leader; at
	// least some should report queue wait. (Not asserted per-op — the
	// uncontended path is legal whenever the queue is empty — only that
	// stages stay sane.)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				db.Put(key(1000+w*100+i%50), val(i, 64))
			}
		}(w)
	}
	for i := 0; i < 200; i++ {
		var qtr OpTrace
		if _, err := db.PutTraced(key(2000+i), val(i, 64), &qtr); err != nil {
			t.Fatal(err)
		}
		if qtr.QueueWait < 0 || qtr.Apply < 0 {
			t.Fatalf("negative stage: %+v", qtr)
		}
	}
	stop.Store(true)
	wg.Wait()
}

// TestHardStallSecondsKeepsFraction: a hard stall lasts milliseconds, so the
// seconds counter must carry the fraction, not whole seconds.
func TestHardStallSecondsKeepsFraction(t *testing.T) {
	db, release, done := stalledLeader(t, t.TempDir(),
		[]KV{{Key: key(1000), Value: val(1000, 256)}})
	defer db.Close()
	time.Sleep(5 * time.Millisecond)
	release()
	for _, it := range <-done {
		putIntent(it)
	}
	p, ok := db.Registry().Gather().Find("prism_engine_compaction_hard_stall_seconds_total")
	if !ok || p.Value <= 0 || p.Value >= 1 {
		t.Fatalf("hard stall seconds = %+v, want a value in (0, 1) after a ~5 ms stall", p)
	}
}

// TestObsRaceStress races the tracer sampler, registry Gather, event-log
// writers/readers, and Prometheus exposition against live GET/SET/MSET/
// DELETE/iterator/compaction traffic and a concluding Close. Run under
// -race this is the telemetry subsystem's data-race gate.
func TestObsRaceStress(t *testing.T) {
	reg := obs.NewRegistry()
	ev := obs.NewEventLog(128)
	tracer := obs.NewTracer(4, 16, 32) // sample 1 in 4
	o := asyncTestOptions()
	o.Partitions = 2
	o.Metrics = reg
	o.Events = ev
	db, err := Open(o)
	if err != nil {
		t.Fatal(err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	worker := func(fn func(i int)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				fn(i)
			}
		}()
	}
	// Mutators: plain puts, traced puts, deletes, batches.
	worker(func(i int) { db.Put(key(i%512), val(i, 128)) })
	smp := tracer.NewSampler() // the one goroutine below samples
	worker(func(i int) {
		if sp := smp.Sample(); sp != nil {
			sp.SetOp("set", key(i%512))
			var tr OpTrace
			db.PutTraced(key(i%512), val(i, 128), &tr)
			sp.Stage(obs.StageApply, tr.Apply)
			sp.Stage(obs.StageQueueWait, tr.QueueWait)
			tracer.Finish(sp)
		} else {
			db.Put(key(i%512), val(i, 128))
		}
	})
	worker(func(i int) { db.Delete(key(i % 1024)) })
	worker(func(i int) {
		pairs := []KV{
			{Key: key(3000 + i%64), Value: val(i, 64)},
			{Key: key(4000 + i%64), Value: val(i, 64)},
		}
		db.PutBatch(pairs)
	})
	// Readers: gets, scans.
	worker(func(i int) { db.Get(key(i % 1024)) })
	worker(func(i int) { db.Scan(key(i%256), 16) })
	// Telemetry consumers: Gather + render, event tail, slowlog reads.
	worker(func(i int) {
		g := reg.Gather()
		var sb strings.Builder
		obs.WriteProm(&sb, g)
		if sb.Len() == 0 {
			t.Error("empty exposition")
		}
	})
	worker(func(i int) { ev.Tail(32) })
	worker(func(i int) { tracer.Slow(8); tracer.Recent(8); tracer.SlowLen() })

	time.Sleep(300 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close: gathering must still be safe (collector reads zeroed DB).
	reg.Gather()
}
