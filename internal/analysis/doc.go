package analysis

// Invariant catalog
//
// Each analyzer encodes one convention this codebase relies on for
// correctness under concurrency or crashes. The conventions predate the
// linter; the linter exists because several of them have already been
// violated once, found only in review or by crash tests.
//
// # lockheld — the *Locked suffix contract
//
// A method named fooLocked asserts that its caller holds the subject's
// mutex. The convention appears throughout internal/core (applyLocked and
// the putBodyLocked/delBodyLocked mutation bodies it alone calls,
// drainReadsLocked, syncClockLocked, foldReadsLocked, ...), internal/sst
// (commitLocked, unrefLocked), internal/storage (rotateLocked) and
// internal/simdev (readLocked, writeLocked). Two failure modes:
// calling a *Locked method without the lock (a silent data race), and a
// *Locked method taking the lock itself (an immediate self-deadlock with
// sync.Mutex). The second shape existed in-tree: putLocked/delLocked/
// getLocked acquired p.mu themselves despite the suffix — renamed to
// *Locking by this linter's first run.
//
// # refpair — refcount and epoch pairing
//
// Three refcounted protocols: manifest snapshots (Acquire/Release in
// internal/sst), partition read views (acquireView/release in
// internal/core/readview.go), and slab reclamation epochs
// (PinEpoch/UnpinEpochDeferred in internal/slab). A leaked Acquire pins
// SSTs against deletion forever; a leaked PinEpoch wedges slab slot
// recycling repo-wide. The dangerous shape is the early error return
// between acquire and the deferred release. Handles that escape the
// function (returned, stored, captured) transfer ownership and exit the
// analysis; genuinely cross-function pairs (iterator cursors pin in
// acquire(), unpin in release()) carry //prismvet:ignore annotations that
// name the releasing function.
//
// # walorder — slab effects before their WAL record
//
// Checkpoint = fsync the slab files, then prune the WAL. If an op's WAL
// record lands before its slab write, a rotation-triggered checkpoint can
// prune the record while the slab bytes are still only in the page cache;
// a crash then silently loses the op (the PR 6 delete-resurrection bug had
// exactly this flavor). Within one function, no X.slabs.{Update,Put,
// Delete,ZeroSlot,RecycleSlots} may follow an append: AppendPut/AppendDel/
// AppendBatch, a logOp (internal/core queues each mutation's record with
// logOp and appends whole groups in queue order, so the queueing is where
// the order is decided), or a call to a same-file helper that does one of
// those.
//
// # pubsafe — copy-on-write publication
//
// The lock-free read path loads views and manifests through
// atomic.Pointer. Readers never take the partition mutex, so an object is
// immutable from the instant it is Stored. The write path must build a
// complete fresh object and publish it once; patching a published object
// (v.fields = ... after ptr.Store(v)) races every in-flight reader.
//
// # shadowerr — if-scoped err shadowing that drops the error
//
// `if err := f(); err != nil { ... }` where the block neither terminates
// nor mentions err again checks the inner error and discards it — and the
// shadowing makes the drop invisible: downstream `if err != nil` handling
// reads the OUTER err and passes. A WAL rotation bug of this exact shape
// (journal.rotateLocked's WriteAt error) was caught in PR 6 review.
//
// # The ignore contract
//
//	//prismvet:ignore <analyzer>[,<analyzer>|all] <reason...>
//
// placed on the flagged line or the line immediately above suppresses the
// named analyzers for that line. The reason is mandatory and should state
// why the invariant still holds even though the analyzer cannot see it
// (e.g. which function performs the matching release). A directive with no
// reason, or naming an unknown analyzer, is itself reported. Suppressions
// are deliberately loud in review: each one is a claim that a human
// re-verified the invariant by hand.
//
// # Limits
//
// The analyzers are purely syntactic and intra-procedural: they see dotted
// identifier chains and statement order, not types or the call graph.
// Aliasing beyond `p := c.p` style rebinding, locks passed as parameters,
// and pairs split across functions are out of scope — by design, those are
// also the shapes a human reviewer cannot verify locally, and the
// conventions exist precisely to keep the code in locally-checkable form.
