package main

import (
	"fmt"
	"time"

	"github.com/prismdb/prismdb/bench"
	"github.com/prismdb/prismdb/workload"
)

// paperPass is one bench.Run of the Fig 10 YCSB-A configuration: PrismDB
// at the paper's 1:5 NVM:QLC split under the serial lockstep driver (sync
// write and compaction modes), so every virtual-time number is a pure
// function of the seed and the op counts.
type paperPass struct {
	res   *bench.Result
	setup time.Duration // load + warm-up: total wall − the measured phase's
}

func runPaper(s spec, seed int64, ops int) (paperPass, error) {
	wl, err := workload.YCSB('a', s.keys, valueSize, s.theta, seed)
	if err != nil {
		return paperPass{}, err
	}
	start := time.Now()
	res, err := bench.Run(
		bench.Setup{System: bench.SysPrism, NVMFraction: 1.0 / 6},
		bench.Scale{Keys: s.keys, Ops: ops, WarmupOps: s.warmupOps, ValueSize: valueSize},
		wl, s.name)
	if err != nil {
		return paperPass{}, fmt.Errorf("%s: %w", s.name, err)
	}
	return paperPass{res: res, setup: time.Since(start) - res.HostElapsed}, nil
}

// counts checks the pass's outputs: every op must have reached the engine
// as exactly one get or put, every read must have found its (preloaded)
// key, and the latency histograms must hold one sample per op.
func (p paperPass) counts() (attempted, failed int64) {
	st := p.res.Prism
	attempted = int64(p.res.Ops)
	failed = st.GetMiss +
		abs64(attempted-(st.Gets+st.Puts)) +
		abs64(p.res.ReadHist.Count()-st.Gets) +
		abs64(p.res.UpdateHist.Count()-st.Puts)
	return attempted, failed
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

func (p paperPass) endToEndMetrics() map[string]float64 {
	r := p.res
	return map[string]float64{
		"ops_per_s":             r.HostKops * 1000,
		"virt_kops":             r.ThroughputKops,
		"virt_get_tail_us":      unpack(r.ReadHist).tailMean(0.01) / 1000,
		"nvm_read_ratio":        r.Prism.NVMReadRatio(),
		"flash_wr_bytes_per_op": flashFloor(float64(r.FlashWritten) / float64(r.Ops)),
	}
}

// virtualFingerprint renders the pass's virtual-time outputs with every
// digit; two passes with one seed must print the same string.
func (p paperPass) virtualFingerprint() string {
	r := p.res
	return fmt.Sprintf("elapsed=%d kops=%v tail=%v nvm=%v flash_wr=%d flash_rd=%d nvm_wr=%d comps=%d demoted=%d promoted=%d",
		r.Elapsed, r.ThroughputKops, unpack(r.ReadHist).tailMean(0.01), r.Prism.NVMReadRatio(),
		r.FlashWritten, r.FlashRead, r.NVMWritten, r.Prism.Compactions, r.Prism.Demoted, r.Prism.Promoted)
}
