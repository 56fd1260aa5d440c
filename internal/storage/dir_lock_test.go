//go:build unix && !aix && !(solaris && !illumos)

package storage

import (
	"errors"
	"testing"
)

// The flock is only real on unix; elsewhere flockExclusive is a no-op and
// double-opening is (knowingly) not excluded.
func TestDirLockExclusion(t *testing.T) {
	dir := t.TempDir()
	d1, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenDir(dir, nil); !errors.Is(err, errLocked) {
		t.Fatalf("second OpenDir returned %v, want lock error", err)
	}
	if err := d1.Close(); err != nil {
		t.Fatal(err)
	}
	// Close releases the flock: the directory can be reopened.
	d2, err := OpenDir(dir, nil)
	if err != nil {
		t.Fatalf("reopen after Close: %v", err)
	}
	d2.Close()
}
