package bench

import (
	"sort"
	"testing"

	"github.com/prismdb/prismdb/workload"
)

// perfScale is the workload used for the driver benchmarks: large enough
// that steady-state op cost dominates setup, small enough for CI.
func perfScale() Scale {
	return Scale{Keys: 20000, Ops: 30000, WarmupOps: 10000, ValueSize: 1024}
}

// BenchmarkYCSBBSerial drives the read-heavy YCSB-B mix through the serial
// lockstep driver on 8 partitions. ns/op covers one full Run (load +
// warm-up + measure), so before/after comparisons divide the same work.
func BenchmarkYCSBBSerial(b *testing.B) {
	benchmarkYCSBB(b, Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8})
}

// BenchmarkYCSBBParallel is the same workload through the parallel
// partition driver: one worker goroutine per partition.
func BenchmarkYCSBBParallel(b *testing.B) {
	benchmarkYCSBB(b, Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8, ParallelDriver: true})
}

func benchmarkYCSBB(b *testing.B, setup Setup) {
	sc := perfScale()
	wl, err := workload.YCSB('B', sc.Keys, sc.ValueSize, 0.99, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var hostKops float64
	for i := 0; i < b.N; i++ {
		res, err := Run(setup, sc, wl, "ycsb-b")
		if err != nil {
			b.Fatal(err)
		}
		if res.ThroughputKops <= 0 {
			b.Fatal("no throughput")
		}
		hostKops += res.HostKops
	}
	// Host ops/sec of the measured phase alone (excludes load/warm-up).
	b.ReportMetric(hostKops/float64(b.N)*1000, "wall-ops/s")
}

// BenchmarkYCSBESerial drives the scan-heavy YCSB-E mix (95% scans) through
// the serial lockstep driver, so scan throughput joins the tracked perf
// trajectory in BENCH_<date>.json.
func BenchmarkYCSBESerial(b *testing.B) {
	benchmarkYCSBE(b, Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8})
}

// BenchmarkYCSBEParallel is YCSB-E through the parallel partition driver:
// scans stream through snapshot-pinned iterators that charge only the
// issuing worker's clock, so one worker per partition stays sound.
func BenchmarkYCSBEParallel(b *testing.B) {
	benchmarkYCSBE(b, Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8, ParallelDriver: true})
}

func benchmarkYCSBE(b *testing.B, setup Setup) {
	sc := Scale{Keys: 20000, Ops: 8000, WarmupOps: 2000, ValueSize: 1024}
	wl, err := workload.YCSB('E', sc.Keys, sc.ValueSize, 0.99, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var hostKops float64
	for i := 0; i < b.N; i++ {
		res, err := Run(setup, sc, wl, "ycsb-e")
		if err != nil {
			b.Fatal(err)
		}
		if res.ThroughputKops <= 0 {
			b.Fatal("no throughput")
		}
		hostKops += res.HostKops
	}
	b.ReportMetric(hostKops/float64(b.N)*1000, "wall-ops/s")
}

// TestParallelScanAccountingMatchesSerial is the regression test for the
// parallel-driver scan bug this PR fixes structurally: scans used to
// advance foreign partitions' clocks from the issuing worker's goroutine,
// so scan-heavy parallel runs reported untrustworthy virtual time. With
// iterator-owned clocks, serial and parallel YCSB-E must agree on the
// logical work exactly and on simulated throughput within ~10%.
func TestParallelScanAccountingMatchesSerial(t *testing.T) {
	sc := Scale{Keys: 4000, Ops: 3000, WarmupOps: 1000, ValueSize: 512}
	wl, err := workload.YCSB('E', sc.Keys, sc.ValueSize, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Both rigs pin sync compaction: this test isolates DRIVER equivalence
	// (lockstep vs parallel), and the drivers otherwise default to
	// different compaction modes (serial→sync, parallel→async).
	serial, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8, Compaction: "sync"}, sc, wl, "serial")
	if err != nil {
		t.Fatal(err)
	}
	// The parallel driver's virtual time depends on the order in which the
	// host scheduled the workers' device requests (a partition running ahead
	// moves a shared lane's frontier into the others' future): single runs
	// read 0.87–1.03 of serial over 150 runs, and the centre moves a few
	// percent with how much compaction I/O falls in the window. The band is
	// checked on the median of three runs; the logical work on every one.
	var kops []float64
	for i := 0; i < 3; i++ {
		par, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8, ParallelDriver: true, Compaction: "sync"}, sc, wl, "parallel")
		if err != nil {
			t.Fatal(err)
		}
		if s, p := serial.ScanHist.Count(), par.ScanHist.Count(); s != p {
			t.Fatalf("scan ops: serial %d, parallel %d", s, p)
		}
		if s, p := serial.Prism.Scans, par.Prism.Scans; s != p {
			t.Fatalf("engine Scans: serial %d, parallel %d", s, p)
		}
		if s, p := serial.Prism.Puts, par.Prism.Puts; s != p {
			t.Fatalf("engine Puts: serial %d, parallel %d", s, p)
		}
		kops = append(kops, par.ThroughputKops)
	}
	sort.Float64s(kops)
	ratio := kops[1] / serial.ThroughputKops
	if ratio < 0.90 || ratio > 1.10 {
		t.Fatalf("scan-heavy throughput diverged beyond ~10%%: serial %.3f kops, parallel %.3f kops (median of %.3f; ratio %.3f)",
			serial.ThroughputKops, kops[1], kops, ratio)
	}
}

// TestParallelDriverMatchesSerial checks the parallel driver produces the
// same logical work as the serial lockstep driver: identical op counts and
// per-kind histogram totals, and a virtual elapsed time in the same
// neighborhood (cross-partition queueing interleaves differently, so exact
// equality is not expected).
func TestParallelDriverMatchesSerial(t *testing.T) {
	sc := Scale{Keys: 4000, Ops: 6000, WarmupOps: 2000, ValueSize: 512}
	wl, err := workload.YCSB('B', sc.Keys, sc.ValueSize, 0.99, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sync compaction on both sides; see TestParallelScanAccountingMatchesSerial.
	serial, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8, Compaction: "sync"}, sc, wl, "serial")
	if err != nil {
		t.Fatal(err)
	}
	par, err := Run(Setup{System: SysPrism, NVMFraction: 1.0 / 6, Partitions: 8, ParallelDriver: true, Compaction: "sync"}, sc, wl, "parallel")
	if err != nil {
		t.Fatal(err)
	}
	if s, p := serial.ReadHist.Count(), par.ReadHist.Count(); s != p {
		t.Fatalf("read ops: serial %d, parallel %d", s, p)
	}
	if s, p := serial.UpdateHist.Count(), par.UpdateHist.Count(); s != p {
		t.Fatalf("update ops: serial %d, parallel %d", s, p)
	}
	if s, p := serial.Prism.Gets, par.Prism.Gets; s != p {
		t.Fatalf("engine Gets: serial %d, parallel %d", s, p)
	}
	if s, p := serial.Prism.Puts, par.Prism.Puts; s != p {
		t.Fatalf("engine Puts: serial %d, parallel %d", s, p)
	}
	ratio := par.Elapsed.Seconds() / serial.Elapsed.Seconds()
	if ratio < 0.5 || ratio > 2.0 {
		t.Fatalf("virtual elapsed diverged: serial %v, parallel %v (ratio %.2f)",
			serial.Elapsed, par.Elapsed, ratio)
	}
}
