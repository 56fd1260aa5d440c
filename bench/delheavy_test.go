package bench

import (
	"fmt"
	"testing"

	"github.com/prismdb/prismdb/workload"
)

// TestDeleteHeavyChurn drives the ~25%-DEL YCSB-style mix through the
// bench Engine — a workload shape the suite never exercised before — and
// pins three invariants over the measured phase, in both compaction modes:
//
//   - stats accounting: Puts+Gets+Deletes+Scans equals exactly the ops
//     issued (RMW aside, which this mix has none of);
//   - tombstone progress: delete churn over a two-tier dataset must
//     annihilate tombstones (DroppedTombstones advances), not pin them;
//   - space safety: NVM usage ends under the high watermark once
//     compactions settle.
func TestDeleteHeavyChurn(t *testing.T) {
	for _, mode := range []string{"sync", "async"} {
		t.Run(mode, func(t *testing.T) {
			sc := Scale{Keys: 4000, Ops: 12000, WarmupOps: 2000, ValueSize: 512}
			wl := workload.DeleteHeavy(sc.Keys, sc.ValueSize, 0.99, 1)
			setup := Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 4, Compaction: mode}
			r, err := build(setup, sc, wl)
			if err != nil {
				t.Fatal(err)
			}
			gen := workload.NewGenerator(wl)
			for i := 0; i < sc.Keys; i++ {
				if _, err := r.eng.Put(gen.LoadKey(i), gen.LoadValue(i)); err != nil {
					t.Fatalf("load: %v", err)
				}
			}
			if err := r.driveOps(gen, sc.WarmupOps, nil, nil, nil); err != nil {
				t.Fatalf("warmup: %v", err)
			}
			r.eng.AdvanceAll()
			r.eng.ResetStats()
			if err := r.driveOps(gen, sc.Ops, nil, nil, nil); err != nil {
				t.Fatalf("measure: %v", err)
			}
			r.eng.AdvanceAll() // drains async workers before reading stats

			st := r.prism.Stats()
			if got := st.Puts + st.Gets + st.Deletes + st.Scans; got != int64(sc.Ops) {
				t.Fatalf("stats invariant broken: Puts %d + Gets %d + Deletes %d + Scans %d = %d, issued %d",
					st.Puts, st.Gets, st.Deletes, st.Scans, got, sc.Ops)
			}
			if st.Deletes < int64(sc.Ops)/5 {
				t.Fatalf("mix not delete-heavy: %d deletes of %d ops", st.Deletes, sc.Ops)
			}
			if st.DroppedTombstones == 0 {
				t.Fatalf("no tombstones annihilated under delete-heavy churn: %+v", st)
			}
			used, budget := r.prism.NVMUsage()
			high := int64(float64(budget) * r.prism.Options().HighWatermark)
			if used > high {
				t.Fatalf("NVM usage %d above high watermark %d (budget %d) after settling", used, high, budget)
			}
			r.prism.Close()
		})
	}
}

// TestAsyncSerialBenchFidelity runs YCSB-A, -B, and -E through the serial
// lockstep driver in sync and async compaction modes and requires the
// simulated time of the measured phase to agree within a modest band: both
// modes run one compaction job on one virtual-time model (BG clock,
// compEndAt serialization, space-credit maturation), diverging only in
// which foreground ops a background round's commit happens to land between.
// Both sides are measured to
// a settled state (AdvanceAll: workers drained, compaction horizons
// folded in), so in-flight work at the phase edge — which sync pays
// inline but async would otherwise defer past the measurement — cannot
// skew the comparison.
func TestAsyncSerialBenchFidelity(t *testing.T) {
	sc := Scale{Keys: 6000, Ops: 9000, WarmupOps: 3000, ValueSize: 512}
	for _, w := range []byte{'A', 'B', 'E'} {
		w := w
		t.Run(fmt.Sprintf("ycsb-%c", w), func(t *testing.T) {
			sc := sc
			if w == 'E' {
				// Scan-heavy E compacts a handful of times per partition in
				// 9 000 ops, so where one round's commit fell decides the
				// ratio (0.96–1.19 over forty runs); four times the ops
				// averages that out (0.99–1.08 over twelve).
				sc.Ops *= 4
			}
			run := func(mode string) float64 {
				wl, err := workload.YCSB(w, sc.Keys, sc.ValueSize, 0.99, 1)
				if err != nil {
					t.Fatal(err)
				}
				r, err := build(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 4, Compaction: mode}, sc, wl)
				if err != nil {
					t.Fatal(err)
				}
				defer r.prism.Close()
				gen := workload.NewGenerator(wl)
				for i := 0; i < sc.Keys; i++ {
					if _, err := r.eng.Put(gen.LoadKey(i), gen.LoadValue(i)); err != nil {
						t.Fatalf("load: %v", err)
					}
				}
				if err := r.driveOps(gen, sc.WarmupOps, nil, nil, nil); err != nil {
					t.Fatalf("warmup: %v", err)
				}
				r.eng.AdvanceAll()
				start := r.eng.Elapsed()
				if err := r.driveOps(gen, sc.Ops, nil, nil, nil); err != nil {
					t.Fatalf("measure: %v", err)
				}
				r.eng.AdvanceAll()
				return (r.eng.Elapsed() - start).Seconds()
			}
			syncSec := run("sync")
			asyncSec := run("async")
			ratio := asyncSec / syncSec
			// The modes run the same job, so they do the same work at the
			// same virtual cost; what is left is scheduling. A background
			// round commits between whichever foreground ops the host
			// scheduler lets in, which moves a few admissions and placements
			// per round. Ten runs: A 0.995–1.043, B 0.949–1.027, E as above.
			// (Before the modes shared one round, A read 0.72–0.75: the
			// inline copy debited every in-merge promotion twice, and the
			// leaked admission credit turned each round's duration into a
			// writer's stall.) Beyond ±15% would mean the modes no longer
			// share the virtual-time model.
			t.Logf("sync %.4fs async %.4fs ratio %.3f", syncSec, asyncSec, ratio)
			if ratio < 0.85 || ratio > 1.15 {
				t.Fatalf("async serial virtual time diverged from sync: sync %.4fs, async %.4fs (ratio %.3f)",
					syncSec, asyncSec, ratio)
			}
		})
	}
}
