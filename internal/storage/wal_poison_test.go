package storage

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestWaitDurableWokenByPoison pins the satellite bugfix: a writer parked
// in WaitDurable when the flusher latches a sticky I/O error must be woken
// with that error immediately — fail() broadcasts to the durability
// waiters. Pre-fix, the poisoned flusher stopped advancing the durable LSN
// without waking anyone, and every in-flight SyncEvery writer hung until
// Close.
func TestWaitDurableWokenByPoison(t *testing.T) {
	dir := t.TempDir()
	fi := &FaultInjector{}
	d := openTestDir(t, dir, fi)
	defer d.Close()
	w, _ := replayAll(t, d, WALOptions{Mode: SyncEvery})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer w.Kill()

	// Prove the happy path first, so the armed fault below is the only
	// variable.
	lsn, err := w.AppendPut([]byte("k0"), []byte("v0"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WaitDurable(lsn); err != nil {
		t.Fatal(err)
	}

	// The next WAL I/O — the segment write for the record appended below —
	// fails. The appender is already parked (or about to park) in
	// WaitDurable when the flusher poisons the log on its own goroutine;
	// either way it must observe the error within the deadline, not hang.
	fi.ArmScoped(ScopeWAL, 1, FaultError)
	lsn, err = w.AppendPut([]byte("k1"), []byte("v1"))
	if err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- w.WaitDurable(lsn) }()
	select {
	case err := <-waitErr:
		if !errors.Is(err, ErrInjected) {
			t.Fatalf("WaitDurable after poison = %v, want ErrInjected", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitDurable still parked 5s after the flusher poisoned the log")
	}

	// The poison is sticky: later appends and waits fail fast, and group-
	// mode-style non-waiting callers see the same error through Err().
	if _, err := w.AppendPut([]byte("k2"), []byte("v2")); err == nil {
		if err := w.WaitDurable(lsn + 1); err == nil {
			t.Fatal("poisoned WAL acknowledged a later write")
		}
	}
	if err := w.Err(); !errors.Is(err, ErrInjected) {
		t.Fatalf("Err() on a poisoned WAL = %v, want ErrInjected", err)
	}
}

// TestIOErrorHookRunsBeforeWaitersWake pins the order fail() keeps: the
// OnIOError hook (the engine's degrade transition) has returned before any
// waiter sees the sticky error, so a caller that issues its next write the
// moment the failed one returns finds the engine already read-only. The
// hook sleeps to hold open the window a wake-first order would leave; each
// iteration is a fresh log.
func TestIOErrorHookRunsBeforeWaitersWake(t *testing.T) {
	for i := 0; i < 20; i++ {
		fi := &FaultInjector{}
		d := openTestDir(t, t.TempDir(), fi)
		var degraded atomic.Bool
		w, _ := replayAll(t, d, WALOptions{Mode: SyncEvery, OnIOError: func(error) {
			time.Sleep(time.Millisecond)
			degraded.Store(true)
		}})
		if err := w.Start(nil); err != nil {
			t.Fatal(err)
		}
		fi.ArmScoped(ScopeWAL, 1, FaultError)
		lsn, err := w.AppendPut([]byte("k"), []byte("v"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.WaitDurable(lsn); !errors.Is(err, ErrInjected) {
			t.Fatalf("iteration %d: WaitDurable = %v, want ErrInjected", i, err)
		}
		if !degraded.Load() {
			t.Fatalf("iteration %d: WaitDurable returned the sticky error before OnIOError finished", i)
		}
		w.Kill()
		d.Close()
	}
}

// TestWaitDurableSyncGroupReportsPoison covers the non-parking modes: in
// SyncGroup, WaitDurable never blocks for durability, but once the flusher
// has latched a sticky error the call must report it instead of letting a
// caller acknowledge a write the log can no longer promise.
func TestWaitDurableSyncGroupReportsPoison(t *testing.T) {
	dir := t.TempDir()
	fi := &FaultInjector{}
	d := openTestDir(t, dir, fi)
	defer d.Close()
	w, _ := replayAll(t, d, WALOptions{Mode: SyncGroup, FsyncEvery: 4, FsyncInterval: time.Millisecond})
	if err := w.Start(nil); err != nil {
		t.Fatal(err)
	}
	defer w.Kill()

	fi.ArmScoped(ScopeWAL, 1, FaultError)
	lsn, err := w.AppendPut([]byte("k"), []byte("v"))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := w.WaitDurable(lsn); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("WaitDurable = %v, want ErrInjected", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sticky error never surfaced through SyncGroup WaitDurable")
		}
		time.Sleep(time.Millisecond)
	}
}
