package core

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/prismdb/prismdb/internal/obs"
)

// ErrReadOnly is returned by every mutation issued while the DB is degraded:
// a sticky storage error (WAL append/fsync failure, manifest journal failure,
// checkpoint fsync failure, ENOSPC, a declared I/O stall) has made further
// writes unsafe to acknowledge, so the DB serves reads from its published
// views and refuses writes fast instead of hanging or lying. Serving front
// ends map it to a RESP -READONLY reply.
var ErrReadOnly = errors.New("prismdb: database is read-only (degraded)")

// HealthState is a DB's position in the failure-domain state machine.
// Transitions only move away from Healthy (sticky until the process reopens
// the data directory — recovery is a reopen, not an in-place retry):
//
//	Healthy ──storage write error──▶ Degraded ──unrecoverable data loss──▶ Failed
//	   └──────────────NVM bit rot (scrub)──────────────────────────────────┘
type HealthState int32

const (
	// StateHealthy: full service.
	StateHealthy HealthState = iota
	// StateDegraded: read-only. The durability substrate reported a sticky
	// error, so mutations fail fast with ErrReadOnly while lock-free reads
	// keep serving from the published views (whose backing pages and slab
	// reads are unaffected by the write-side failure). A clean reopen
	// recovers: acknowledged writes are on disk, unacknowledged ones were
	// never acked.
	StateDegraded
	// StateFailed: read-only AND the scrubber has proven unrecoverable data
	// loss (an NVM slab slot failed its CRC — unlike a rotted SST block,
	// which merely quarantines its table and falls back to other tiers,
	// a rotted slab slot has no redundant copy). Reads still serve what is
	// readable; the state advertises that a reopen will NOT restore the
	// lost objects.
	StateFailed
)

// String names the state (INFO/HEALTH spelling).
func (s HealthState) String() string {
	switch s {
	case StateHealthy:
		return "healthy"
	case StateDegraded:
		return "degraded"
	case StateFailed:
		return "failed"
	}
	return "unknown"
}

// Health is a point-in-time snapshot of the DB's failure-domain state.
type Health struct {
	State HealthState
	// Cause is the first sticky error that forced the transition out of
	// Healthy ("" while healthy). Later errors don't overwrite it: the
	// first failure is the diagnosis, the rest are symptoms.
	Cause string
	// Since is when the transition happened (zero while healthy).
	Since time.Time
	// ReadOnly reports whether mutations are currently refused.
	ReadOnly bool
}

// healthTracker is the DB's sticky failure-domain state machine. The state
// itself is an atomic (the write path's gate is one relaxed load on the hot
// path); cause/since are guarded by mu. Transitions are monotone — degrade()
// and fail() only ever move the state away from Healthy, and the first
// transition's cause wins.
type healthTracker struct {
	state  atomic.Int32
	events *obs.EventLog

	mu    sync.Mutex
	cause string
	err   error // the wrapped ErrReadOnly handed to refused writers
	since time.Time
}

func newHealthTracker(events *obs.EventLog) *healthTracker {
	return &healthTracker{events: events}
}

// writeErr is the mutation gate: nil while healthy, the sticky wrapped
// ErrReadOnly otherwise. One atomic load on the hot path.
func (h *healthTracker) writeErr() error {
	if HealthState(h.state.Load()) == StateHealthy {
		return nil
	}
	h.mu.Lock()
	err := h.err
	h.mu.Unlock()
	if err == nil {
		// The state store won its race with the cause store; synthesize.
		err = ErrReadOnly
	}
	return err
}

// ok reports full service (background work uses it to stand down while
// degraded instead of churning a broken substrate).
func (h *healthTracker) ok() bool {
	return HealthState(h.state.Load()) == StateHealthy
}

// snapshot returns the current Health.
func (h *healthTracker) snapshot() Health {
	st := HealthState(h.state.Load())
	h.mu.Lock()
	defer h.mu.Unlock()
	return Health{
		State:    st,
		Cause:    h.cause,
		Since:    h.since,
		ReadOnly: st != StateHealthy,
	}
}

// degrade moves Healthy → Degraded with the given cause. Idempotent; only
// the first transition records its cause and emits the event. Safe to call
// from any goroutine (WAL flusher, watchdog, checkpoint path, compaction
// worker).
func (h *healthTracker) degrade(source string, cause error) {
	h.transition(StateDegraded, source, cause)
}

// fail moves to Failed (from Healthy or Degraded): the scrubber's verdict
// that data is unrecoverably lost. The read-only cause (if any) is kept;
// the state escalates.
func (h *healthTracker) fail(source string, cause error) {
	h.transition(StateFailed, source, cause)
}

func (h *healthTracker) transition(to HealthState, source string, cause error) {
	for {
		cur := HealthState(h.state.Load())
		if cur >= to {
			return // already there or worse; first diagnosis stands
		}
		if !h.state.CompareAndSwap(int32(cur), int32(to)) {
			continue
		}
		first := cur == StateHealthy
		h.mu.Lock()
		if first {
			h.cause = fmt.Sprintf("%s: %v", source, cause)
			h.err = fmt.Errorf("%w: %s", ErrReadOnly, h.cause)
			h.since = time.Now()
		}
		h.mu.Unlock()
		h.events.Emit("health_transition",
			"from", cur.String(), "to", to.String(),
			"source", source, "cause", cause.Error())
		return
	}
}

// Health reports the DB's failure-domain state: Healthy (full service),
// Degraded (read-only after a sticky storage error — see ErrReadOnly), or
// Failed (read-only with scrub-proven unrecoverable NVM loss). Callable at
// any time, including after Close.
func (db *DB) Health() Health { return db.health.snapshot() }
