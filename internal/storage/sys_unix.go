//go:build unix && !aix && !(solaris && !illumos)

package storage

import (
	"os"
	"syscall"
)

// flockExclusive takes a non-blocking exclusive advisory lock on f. It
// returns errLocked if another descriptor (any process, including this one)
// holds the lock.
func flockExclusive(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return errLocked
	}
	return err
}

// funlock releases the advisory lock held on f.
func funlock(f *os.File) error {
	return syscall.Flock(int(f.Fd()), syscall.LOCK_UN)
}
