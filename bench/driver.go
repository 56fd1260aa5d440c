package bench

import (
	"math"
	"sync"
	"time"

	"github.com/prismdb/prismdb/internal/metrics"
	"github.com/prismdb/prismdb/workload"
)

// paceWindow bounds how far ahead of the slowest active partition a
// parallel worker may run in virtual time. Shared device channels are
// reserved at the issuer's virtual now, so an unbounded leader would
// reserve lanes deep in the virtual future and laggards would queue behind
// them — inflating simulated time the lockstep driver would never show.
// A couple of milliseconds spans thousands of µs-scale ops, keeping the
// synchronization cost negligible while holding the skew to ~window/run.
const paceWindow = 2 * time.Millisecond

// clockPacer is a conservative discrete-event time window over the
// partition workers' virtual clocks.
type clockPacer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	clocks []int64
	window int64
}

func newClockPacer(n int, window time.Duration) *clockPacer {
	p := &clockPacer{clocks: make([]int64, n), window: int64(window)}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// advance publishes worker i's clock, then blocks while the worker is more
// than one window ahead of the slowest active worker.
func (p *clockPacer) advance(i int, t int64) {
	p.mu.Lock()
	p.clocks[i] = t
	p.cond.Broadcast()
	for t > p.min()+p.window {
		p.cond.Wait()
	}
	p.mu.Unlock()
}

// done retires worker i so laggards never wait on a finished worker.
func (p *clockPacer) done(i int) {
	p.mu.Lock()
	p.clocks[i] = math.MaxInt64
	p.cond.Broadcast()
	p.mu.Unlock()
}

func (p *clockPacer) min() int64 {
	m := int64(math.MaxInt64)
	for _, c := range p.clocks {
		if c < m {
			m = c
		}
	}
	return m
}

// driveOpsParallel executes n generated operations with one worker
// goroutine per PrismDB partition, exploiting the engine's shared-nothing
// design: ops are routed to per-partition streams up front (generation
// stays serial and deterministic), then every worker drains its own stream
// with no per-op cross-worker coordination beyond the time-window pacer.
// Each worker records latencies into private histograms that are merged
// once at the end, so the measurement path adds no locks to the op loop.
//
// Per-partition virtual-time causality is exact — a partition's ops run in
// issue order on its own clock, and a scan (however many partitions' data
// it reads through its iterator) charges only the issuing worker's clock.
// Cross-partition interactions (shared device channels, the shared CPU
// pool) interleave within the pacer window, so simulated latencies can
// vary slightly run to run; wall-clock throughput is the point of this
// driver.
func (r *rig) driveOpsParallel(gen *workload.Generator, n int, rh, uh, sh *metrics.Histogram) error {
	parts := r.prism.Partitions()
	queues, err := workload.Shard(gen, n, parts, r.prism.PartitionOf)
	if err != nil {
		return err
	}

	pacer := newClockPacer(parts, paceWindow)
	for pi := 0; pi < parts; pi++ {
		if len(queues[pi]) == 0 {
			pacer.done(pi)
			continue
		}
		pacer.clocks[pi] = int64(r.prism.PartitionClock(pi))
	}

	type workerResult struct {
		rh, uh, sh *metrics.Histogram
		err        error
	}
	results := make([]workerResult, parts)
	var wg sync.WaitGroup
	for pi := 0; pi < parts; pi++ {
		if len(queues[pi]) == 0 {
			continue
		}
		wg.Add(1)
		go func(pi int, ops []workload.Op) {
			defer wg.Done()
			defer pacer.done(pi)
			res := &results[pi]
			if rh != nil {
				res.rh = metrics.NewHistogram()
			}
			if uh != nil {
				res.uh = metrics.NewHistogram()
			}
			if sh != nil {
				res.sh = metrics.NewHistogram()
			}
			// Per-worker engine: private value buffer, shared DB.
			eng := &prismEngine{db: r.prism}
			var valBuf []byte // the dispatched op's value; the engine copies it
			for _, op := range ops {
				valBuf = gen.FillValue(&op, valBuf)
				if err := applyOp(eng, op, res.rh, res.uh, res.sh); err != nil {
					res.err = err
					return
				}
				pacer.advance(pi, int64(r.prism.PartitionClock(pi)))
			}
		}(pi, queues[pi])
	}
	wg.Wait()

	for i := range results {
		res := &results[i]
		if res.err != nil {
			return res.err
		}
		if rh != nil && res.rh != nil {
			rh.Merge(res.rh)
		}
		if uh != nil && res.uh != nil {
			uh.Merge(res.uh)
		}
		if sh != nil && res.sh != nil {
			sh.Merge(res.sh)
		}
	}
	return nil
}
