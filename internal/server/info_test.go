package server

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/simdev"
)

var update = flag.Bool("update", false, "rewrite testdata/info_*.golden from what INFO prints now")

// infoMasks blank the values INFO takes from the wall clock: uptime, time
// since degrading, wall latencies, fsync latencies, recovery time, the
// event payloads (which carry took_ms fields), and the fsync count (an
// MSET's two partition batches may share one group-commit fsync or not).
// Everything else a serial script against a sync-mode engine produces is
// exact.
var infoMasks = regexp.MustCompile(`(?m)^(uptime_seconds|degraded_seconds|\w+_wall_p\d+_us|fsync_p\d+_us|wal_fsyncs|recovery_ms|event):.*$`)

// goldenEngine is a sync-mode DB small enough that the golden script
// demotes to flash: 2 partitions, 256 KiB of NVM budget for ~400 KiB of
// values.
func goldenEngine(t *testing.T, durable bool) *core.DB {
	t.Helper()
	opts := core.Options{
		CompactionMode:   core.CompactionSync,
		WriteMode:        core.WriteSync,
		Partitions:       2,
		NVM:              simdev.New(simdev.NVMParams(64 << 20)),
		Flash:            simdev.New(simdev.QLCParams(512 << 20)),
		Cache:            simdev.NewPageCache(1 << 20),
		NVMBudget:        256 << 10,
		TrackerCapacity:  1024,
		PinningThreshold: 0.7,
		KeySpace:         1 << 16,
		BucketKeys:       256,
		TargetSSTBytes:   64 << 10,
		Seed:             1,
	}
	if durable {
		opts.DataDir = t.TempDir()
	}
	db, err := core.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestInfoGolden drives a fixed serial script (SET, MSET, GET hits and
// misses, DEL, MGET, SCAN) against an in-memory and a durable engine and
// compares the whole INFO reply, wall-clock values masked, with
// testdata/info_<engine>.golden. Run with -update to rewrite the files.
func TestInfoGolden(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "memory"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			db := goldenEngine(t, durable)
			_, dial := startServerCfg(t, Config{Engine: db, Metrics: db.Registry(), Events: db.Events()})
			nc := dial()
			defer nc.Close()
			br := bufio.NewReader(nc)
			val := strings.Repeat("v", 1000)
			for i := 0; i < 400; i++ {
				roundTrip(t, nc, br, "SET", fmt.Sprintf("key%04d", i), val)
			}
			mset := []string{"MSET"}
			for i := 0; i < 10; i++ {
				mset = append(mset, fmt.Sprintf("key%04d", i*7), "short")
			}
			roundTrip(t, nc, br, mset...)
			for i := 0; i < 420; i++ {
				roundTrip(t, nc, br, "GET", fmt.Sprintf("key%04d", i))
			}
			for i := 0; i < 20; i++ {
				roundTrip(t, nc, br, "DEL", fmt.Sprintf("key%04d", i*3))
			}
			roundTrip(t, nc, br, "MGET", "key0001", "key0003", "key0100", "key0399", "nokey")
			roundTrip(t, nc, br, "SCAN", "key0100", "20")
			got := infoMasks.ReplaceAllString(string(roundTrip(t, nc, br, "INFO").Str), "$1:*")

			path := filepath.Join("testdata", "info_"+name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Fatalf("INFO differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// derivedInfo names the INFO rows that have no series of their own: a sum,
// share or quantile of series that do, or the flag that gates its section.
var derivedInfo = map[string]bool{
	"cmd_total":       true,
	"write_batch_p50": true, "write_batch_p99": true,
	"durable":                true,
	"group_commit_batch_p50": true, "group_commit_batch_p99": true,
	"fsync_p50_us": true, "fsync_p99_us": true,
	"dram_hit_ratio": true, "nvm_hit_ratio": true, "flash_hit_ratio": true, "miss_ratio": true,
}

// TestSeriesSurfacesAgree runs a durable DB and a server over one registry
// and checks both surfaces against the series tables: every row prints in
// its INFO section and, unless named in derivedInfo, is a gathered series;
// every line of a table-rendered INFO section is a row; and the histograms
// the benchmark harness reads resolve by name.
func TestSeriesSurfacesAgree(t *testing.T) {
	db := goldenEngine(t, true)
	_, dial := startServerCfg(t, Config{Engine: db, Metrics: db.Registry(), Events: db.Events()})
	nc := dial()
	defer nc.Close()
	br := bufio.NewReader(nc)
	for i := 0; i < 50; i++ {
		roundTrip(t, nc, br, "SET", fmt.Sprintf("k%d", i), "v")
		roundTrip(t, nc, br, "GET", fmt.Sprintf("k%d", i))
	}
	info := map[string]map[string]bool{} // section → keys
	var section string
	for _, line := range strings.Split(string(roundTrip(t, nc, br, "INFO").Str), "\r\n") {
		if name, ok := strings.CutPrefix(line, "# "); ok {
			section = name
			info[section] = map[string]bool{}
		} else if key, _, ok := strings.Cut(line, ":"); ok {
			info[section][key] = true
		}
	}
	g := db.Registry().Gather()

	rows := map[string]bool{} // section:key of every row
	check := func(section, key, name string) {
		rows[section+":"+key] = true
		if !info[section][key] {
			t.Errorf("row %s:%s missing from INFO", section, key)
		}
		if name == "" {
			if !derivedInfo[key] {
				t.Errorf("INFO %s:%s has no series and is not named in derivedInfo", section, key)
			}
		} else if _, ok := g.Find(name); !ok {
			t.Errorf("row %s:%s: series %s missing from Gather", section, key, name)
		} else if derivedInfo[key] {
			t.Errorf("derivedInfo names %s, which has series %s", key, name)
		}
	}
	for _, r := range core.Series {
		check(r.Section, r.Key, r.Name)
	}
	for _, r := range serverSeries {
		check(r.Section, r.Key, r.Name)
	}
	for section, keys := range info {
		if section == "health" || section == "latency" || section == "events" {
			continue // their own renderers
		}
		for key := range keys {
			if !rows[section+":"+key] {
				t.Errorf("INFO %s:%s is no table row", section, key)
			}
		}
	}
	for _, name := range []string{
		`prism_server_op_virtual_latency_seconds{op="get"}`,
		`prism_server_op_virtual_latency_seconds{op="set"}`,
		`prism_server_op_wall_latency_seconds{op="get"}`,
		`prism_server_op_wall_latency_seconds{op="set"}`,
		"prism_server_reply_flush_bytes",
		"prism_wal_fsync_seconds",
		"prism_wal_group_commit_records",
	} {
		if h := g.FindHist(name); h == nil || h.Count() == 0 {
			t.Errorf("histogram %s = %v, want a non-empty histogram", name, h)
		}
	}
}
