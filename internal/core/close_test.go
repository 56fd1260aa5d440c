package core

import (
	"errors"
	"testing"
)

// Close must make every subsequent operation fail with ErrClosed, fail open
// iterators on their next positioning call, and stay idempotent — the
// serving front end's graceful shutdown depends on racing requests draining
// deterministically instead of touching torn-down state.
func TestCloseFailsOpsDeterministically(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := db.Put(key(i), val(i, 100)); err != nil {
			t.Fatal(err)
		}
	}

	open := db.NewIterator(nil, 0)
	if !open.Valid() {
		t.Fatal("iterator over live data must be valid")
	}

	if err := db.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("Close must be idempotent, got %v", err)
	}

	if _, err := db.Put(key(1), val(1, 100)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after Close: err = %v, want ErrClosed", err)
	}
	if _, _, _, err := db.Get(key(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Get after Close: err = %v, want ErrClosed", err)
	}
	if _, _, _, err := db.GetBuf(key(1), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("GetBuf after Close: err = %v, want ErrClosed", err)
	}
	if _, err := db.Delete(key(1)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: err = %v, want ErrClosed", err)
	}
	if _, _, err := db.Scan(nil, 10); !errors.Is(err, ErrClosed) {
		t.Fatalf("Scan after Close: err = %v, want ErrClosed", err)
	}

	// The pre-Close iterator fails on its next positioning call but still
	// releases its pins through Close.
	if open.Next() {
		t.Fatal("Next on an iterator of a closed DB must report false")
	}
	if !errors.Is(open.Err(), ErrClosed) {
		t.Fatalf("open iterator Err = %v, want ErrClosed", open.Err())
	}
	if open.Seek(key(0)) {
		t.Fatal("Seek on a failed iterator must report false")
	}
	if err := open.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("open iterator Close = %v, want ErrClosed", err)
	}

	// Iterators created after Close are born failed.
	born := db.NewIterator(nil, 0)
	if born.Valid() {
		t.Fatal("iterator created after Close must not be valid")
	}
	if !errors.Is(born.Err(), ErrClosed) {
		t.Fatalf("born-failed iterator Err = %v, want ErrClosed", born.Err())
	}
	if born.Next() {
		t.Fatal("Next on a born-failed iterator must report false")
	}
	if err := born.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("born-failed iterator Close = %v, want ErrClosed", err)
	}

	// Read-only accessors keep working so a shutting-down server can report
	// final counters.
	if st := db.Stats(); st.Puts != 50 {
		t.Fatalf("Stats after Close: Puts = %d, want 50", st.Puts)
	}
	if db.Elapsed() <= 0 {
		t.Fatal("Elapsed after Close must still report virtual time")
	}
}
