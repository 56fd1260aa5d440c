package storage

import (
	"os"
	"syscall"
)

// fdatasync flushes file data (not necessarily metadata) to stable storage.
// On Linux this is the cheap variant the WAL wants: record frames only ever
// grow the file, and the one metadata field that matters for replay — the
// file size — is covered by fdatasync's contract.
func fdatasync(f *os.File) error {
	return syscall.Fdatasync(int(f.Fd()))
}
