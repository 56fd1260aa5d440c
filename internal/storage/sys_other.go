//go:build !unix

package storage

import "os"

// Non-unix fallbacks: no advisory locking (the LOCK file still exists, it
// just doesn't exclude).

func flockExclusive(f *os.File) error { return nil }

func funlock(f *os.File) error { return nil }
