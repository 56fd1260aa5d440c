// Command prismserver serves a PrismDB instance over a RESP2-subset TCP
// protocol (GET/SET/DEL/MGET/SCAN/PING/INFO), so any Redis client can put
// real network load on the engine. (The repo benchmark's serve-* workloads
// host the same internal/server in their own process.)
//
// The engine runs RecommendedConfig — the paper's two-tier evaluation setup
// (simulated Optane NVM + QLC flash, tracker at 20% of keys, approx-MSC
// compactions) — so INFO reports both wall-clock serving latencies and the
// engine's virtual-time behavior: tier hit ratios, compaction counters, and
// simulated per-op latencies.
//
// Usage:
//
//	prismserver                          # serve :6380, 1 GiB het10 DB
//	prismserver -addr :7000 -total 4096  # 4 GiB database
//	prismserver -preload 100000          # preload keys before serving
//	prismserver -data-dir /tmp/prism     # durable: WAL + manifest journal,
//	                                     # kill -9 safe, recovers on restart
//	prismserver -metrics-addr :9090      # Prometheus /metrics + /events +
//	                                     # net/http/pprof on a side listener
//
// SIGINT/SIGTERM trigger a graceful shutdown: stop accepting, drain
// connections, then close the DB so stragglers fail with ErrClosed instead
// of racing teardown, and exit 0.
//
// e2e_test.go runs this binary as a subprocess and checks its served
// contract: INFO's op counts, acknowledged writes across kill -9, degraded
// read-only serving after a storage fault, and the telemetry endpoints.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/prismdb/prismdb"
	"github.com/prismdb/prismdb/internal/server"
	"github.com/prismdb/prismdb/workload"
)

func main() {
	addr := flag.String("addr", ":6380", "TCP listen address")
	totalMB := flag.Int64("total", 1024, "database capacity in MiB across both tiers")
	nvmFrac := flag.Float64("nvm", 0.11, "NVM share of capacity (paper het10 ≈ 0.11)")
	parts := flag.Int("partitions", 0, "partition count (0 = default 8)")
	preload := flag.Int("preload", 0, "preload this many workload-keyed 1 KiB objects before serving")
	maxScan := flag.Int("maxscan", 0, "cap on one SCAN command's result count (0 = default 10000)")
	grace := flag.Duration("grace", 5*time.Second, "graceful-shutdown drain window")
	quiet := flag.Bool("quiet", false, "suppress per-connection log output")
	dataDir := flag.String("data-dir", "", "durable data directory (empty = in-memory simulation; see the package docs' Durability section)")
	walSync := flag.String("wal-sync", "sync", "WAL durability mode with -data-dir: sync (ack after fsync, group commit), group (background fsync window), nosync (OS-paced)")
	metricsAddr := flag.String("metrics-addr", "", "serve Prometheus /metrics, /events, and net/http/pprof on this address (empty = off)")
	traceSample := flag.Int("trace-sample", 0, "trace 1 in N commands into SLOWLOG/TRACE (0 = default 64, negative = off)")
	slowlogLen := flag.Int("slowlog-len", 0, "SLOWLOG retained-entry cap (0 = default 32)")
	maxConns := flag.Int("max-conns", 0, "cap on concurrently open client connections; extras get '-ERR max clients reached' (0 = unlimited)")
	idleTimeout := flag.Duration("idle-timeout", 0, "close connections idle for this long (0 = never)")
	stallDeadline := flag.Duration("io-stall-deadline", 0, "with -data-dir: declare a WAL I/O stalled (and degrade to read-only) after this long (0 = off)")
	scrubInterval := flag.Duration("scrub-interval", 0, "with -data-dir: background CRC scrub cycle interval for slab slots and SST blocks (0 = off)")
	chaosDebug := flag.Bool("chaos-debug", false, "enable the DEBUG FAULT command for wire-driven fault injection (chaos testing only)")
	flag.Parse()

	// RecommendedConfig would quietly replace these with its defaults, and
	// the listen log would then name a configuration that is not running.
	if !(*nvmFrac > 0 && *nvmFrac < 1) {
		usageError("-nvm must be between 0 and 1 exclusive, got %v", *nvmFrac)
	}
	if *totalMB <= 0 {
		usageError("-total must be positive, got %d", *totalMB)
	}
	cfg0 := prismdb.RecommendedConfig(prismdb.TierSpec{
		TotalBytes:  *totalMB << 20,
		NVMFraction: *nvmFrac,
		Partitions:  *parts,
	})
	if *dataDir != "" {
		mode, err := prismdb.ParseSyncMode(*walSync)
		if err != nil {
			log.Fatalf("prismserver: %v", err)
		}
		cfg0.DataDir = *dataDir
		cfg0.WALSync = mode
		cfg0.IOStallDeadline = *stallDeadline
		cfg0.ScrubInterval = *scrubInterval
	}
	// -chaos-debug wires one fault injector through both the engine's file
	// backend and the server's DEBUG FAULT command, so a chaos harness can
	// break storage over the wire while a workload runs.
	var faults *prismdb.FaultInjector
	if *chaosDebug {
		if *dataDir == "" {
			log.Fatalf("prismserver: -chaos-debug requires -data-dir (faults are injected into the file backend)")
		}
		faults = &prismdb.FaultInjector{}
		cfg0.Faults = faults
		log.Printf("chaos: DEBUG FAULT enabled (fault injection armed over the wire)")
	}
	// One registry and one event log shared by the engine and the server,
	// so /metrics and INFO expose the whole stack from a single source.
	reg := prismdb.NewMetricsRegistry()
	events := prismdb.NewEventLog(256)
	cfg0.Metrics = reg
	cfg0.Events = events

	openStart := time.Now()
	db, err := prismdb.Open(cfg0)
	if err != nil {
		log.Fatalf("prismserver: open: %v", err)
	}
	if ps := db.PersistenceStats(); ps.Durable {
		log.Printf("durable: %s (wal %s), recovered %d WAL records across %d segments in %v (truncated %d torn bytes, removed %d orphan SSTs, freed %d corrupt slab slots)",
			*dataDir, *walSync, ps.RecoveryRecords, ps.RecoverySegments,
			time.Since(openStart).Round(time.Millisecond),
			ps.LastRecoveryTruncatedBytes, ps.OrphanSSTsRemoved, ps.CorruptSlotsFreed)
	}

	if *preload > 0 {
		start := time.Now()
		val := make([]byte, 1024)
		for i := range val {
			val[i] = 'a' + byte(i%26)
		}
		// workload.KeyOf, so preloaded keys are exactly what the workload
		// package's generators will ask for.
		for i := 0; i < *preload; i++ {
			if _, err := db.Put(workload.KeyOf(i), val); err != nil {
				log.Fatalf("prismserver: preload key %d: %v", i, err)
			}
		}
		log.Printf("preloaded %d keys in %v", *preload, time.Since(start).Round(time.Millisecond))
	}

	cfg := server.Config{
		Engine:      db,
		MaxScanLen:  *maxScan,
		Metrics:     reg,
		Events:      events,
		TraceSample: *traceSample,
		SlowlogLen:  *slowlogLen,
		MaxConns:    *maxConns,
		IdleTimeout: *idleTimeout,
		Faults:      faults,
	}
	if !*quiet {
		cfg.Logf = log.Printf
	}
	srv, err := server.New(cfg)
	if err != nil {
		log.Fatalf("prismserver: %v", err)
	}

	var msrv *http.Server
	if *metricsAddr != "" {
		mln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			log.Fatalf("prismserver: metrics listen: %v", err)
		}
		msrv = &http.Server{Handler: prismdb.NewMetricsMux(reg, events)}
		go func() {
			if err := msrv.Serve(mln); err != nil && err != http.ErrServerClosed {
				log.Printf("prismserver: metrics: %v", err)
			}
		}()
		log.Printf("metrics on http://%s/metrics (events at /events, pprof at /debug/pprof/)", mln.Addr())
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("prismserver: listen: %v", err)
	}
	// The resolved address is logged so harnesses may pass
	// -addr 127.0.0.1:0 and scrape the chosen ephemeral port.
	log.Printf("prismserver listening on %s (capacity %d MiB, nvm %.0f%%)",
		ln.Addr(), *totalMB, *nvmFrac*100)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatalf("prismserver: serve: %v", err)
	case s := <-sig:
		log.Printf("received %v, draining connections (up to %v)", s, *grace)
	}
	if err := srv.Shutdown(*grace); err != nil {
		log.Printf("prismserver: shutdown: %v", err)
	}
	if msrv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		if err := msrv.Shutdown(ctx); err != nil {
			log.Printf("prismserver: metrics shutdown: %v", err)
		}
		cancel()
	}
	if err := <-serveErr; err != nil {
		log.Printf("prismserver: serve: %v", err)
	}
	// Close after the drain so any straggling request fails with ErrClosed
	// rather than observing teardown.
	if err := db.Close(); err != nil {
		log.Printf("prismserver: close: %v", err)
	}
	st := db.Stats()
	log.Printf("final: puts=%d gets=%d deletes=%d scans=%d nvm_read_ratio=%.3f virtual_elapsed=%v",
		st.Puts, st.Gets, st.Deletes, st.Scans, st.NVMReadRatio(), db.Elapsed().Round(time.Microsecond))
}

// usageError reports a flag value the server cannot run with and exits
// with status 2, as the flag package does for a malformed flag.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "prismserver: "+format+"\n", args...)
	os.Exit(2)
}
