package core

import (
	"testing"
)

// The paper leaves a scan prefetcher as future work (§7.2); with it on,
// sequential scans over flash-resident data should cost far fewer device
// round-trips.
func TestScanPrefetchReducesScanTime(t *testing.T) {
	run := func(prefetch bool) (total int64) {
		o := testOptions()
		o.ScanPrefetch = prefetch
		o.Seed = 5
		db, _ := Open(o)
		for i := 0; i < 2500; i++ {
			db.Put(key(i), val(i, 400)) // most of it demotes to flash
		}
		for s := 0; s < 40; s++ {
			_, lat, err := db.Scan(key(s*50), 60)
			if err != nil {
				t.Fatal(err)
			}
			total += int64(lat)
		}
		return total
	}
	slow := run(false)
	fast := run(true)
	if fast*2 > slow {
		t.Fatalf("prefetch scan time %d not ≪ non-prefetch %d", fast, slow)
	}
}
