//go:build !linux

package storage

import "os"

// fdatasync falls back to a full fsync where the syscall package has no
// fdatasync (every system but Linux).
func fdatasync(f *os.File) error { return f.Sync() }
