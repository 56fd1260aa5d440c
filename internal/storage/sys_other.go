//go:build !unix || aix || (solaris && !illumos)

package storage

import "os"

// Fallbacks for systems whose syscall package has no Flock (windows and
// the other non-unixes, aix, solaris; illumos has it): no advisory locking
// (the LOCK file still exists, it just doesn't exclude).

func flockExclusive(f *os.File) error { return nil }

func funlock(f *os.File) error { return nil }
