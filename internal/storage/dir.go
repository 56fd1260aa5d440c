// Package storage is the real-file persistence layer behind the simulated
// devices: a locked data directory, a group-commit write-ahead log, and a
// journaled manifest with an atomic CURRENT pointer. It holds everything
// that must survive a crash; the engine above it keeps talking to simdev
// files and never touches the filesystem directly.
//
// Layout of a data directory:
//
//	LOCK            flock'd while a process has the directory open
//	CURRENT         name of the live manifest journal
//	MANIFEST-NNNNNN append-only journal of SST add/remove edits
//	wal/NNNNNN.wal  write-ahead log segments
//	nvm/...         slab class files (the NVM tier's backing store)
//	flash/...       SST files (the flash tier's backing store)
package storage

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

var errLocked = errors.New("storage: data directory is locked by another process")

const (
	lockName    = "LOCK"
	currentName = "CURRENT"

	// DirWAL, DirNVM, and DirFlash are the subdirectories of a data dir.
	DirWAL   = "wal"
	DirNVM   = "nvm"
	DirFlash = "flash"
)

// Dir is an exclusively-locked data directory. All file I/O under it flows
// through one optional FaultInjector, and every file opened through the Dir
// is tracked so Close can drop the descriptors in one sweep.
type Dir struct {
	path   string
	faults *FaultInjector
	lockf  *os.File

	mu   sync.Mutex
	open map[*file]struct{}
}

// OpenDir creates (if needed) and locks a data directory. faults may be nil.
// It fails with a "locked" error if any other Dir — in this or another
// process — currently has the same directory open.
func OpenDir(path string, faults *FaultInjector) (*Dir, error) {
	for _, sub := range []string{"", DirWAL, DirNVM, DirFlash} {
		if err := os.MkdirAll(filepath.Join(path, sub), 0o755); err != nil {
			return nil, err
		}
	}
	lockf, err := os.OpenFile(filepath.Join(path, lockName), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := flockExclusive(lockf); err != nil {
		lockf.Close()
		if err == errLocked {
			return nil, fmt.Errorf("storage: %s: %w", path, errLocked)
		}
		return nil, err
	}
	// Best-effort breadcrumb for humans; the flock is the actual exclusion.
	lockf.Truncate(0)
	fmt.Fprintf(lockf, "%d\n", os.Getpid())
	return &Dir{
		path:   path,
		faults: faults,
		lockf:  lockf,
		open:   make(map[*file]struct{}),
	}, nil
}

// Close drops every descriptor opened through the Dir and releases the
// directory lock. It does not flush anything: durability is the caller's
// business (the WAL fsyncs on its own Close; slab files are fsynced at
// checkpoints). Crash-simulation tests rely on that — Close after a
// skipped flush behaves like kill -9 with a warm page cache.
func (d *Dir) Close() error {
	d.mu.Lock()
	files := make([]*file, 0, len(d.open))
	for f := range d.open {
		files = append(files, f)
	}
	d.open = make(map[*file]struct{})
	d.mu.Unlock()
	var first error
	for _, f := range files {
		if err := f.f.Close(); err != nil && first == nil {
			first = err
		}
	}
	if d.lockf != nil {
		funlock(d.lockf)
		if err := d.lockf.Close(); err != nil && first == nil {
			first = err
		}
		d.lockf = nil
	}
	return first
}

// create opens a new injected file under sub, failing if it exists.
func (d *Dir) create(sub, name string) (*file, error) {
	osf, err := os.OpenFile(d.join(sub, name), os.O_CREATE|os.O_RDWR|os.O_EXCL, 0o644)
	if err != nil {
		return nil, err
	}
	return d.track(sub, osf), nil
}

// openExisting opens an injected file under sub, returning its size.
func (d *Dir) openExisting(sub, name string) (*file, int64, error) {
	osf, err := os.OpenFile(d.join(sub, name), os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	st, err := osf.Stat()
	if err != nil {
		osf.Close()
		return nil, 0, err
	}
	return d.track(sub, osf), st.Size(), nil
}

func (d *Dir) track(sub string, osf *os.File) *file {
	f := &file{d: d, f: osf, scope: scopeOf(sub)}
	d.mu.Lock()
	d.open[f] = struct{}{}
	d.mu.Unlock()
	return f
}

func (d *Dir) untrack(f *file) {
	d.mu.Lock()
	delete(d.open, f)
	d.mu.Unlock()
}

func (d *Dir) join(sub, name string) string {
	if sub == "" {
		return filepath.Join(d.path, name)
	}
	return filepath.Join(d.path, sub, name)
}

// remove deletes a file under sub.
func (d *Dir) remove(sub, name string) error {
	return os.Remove(d.join(sub, name))
}

// list returns the names and sizes of regular files under sub, sorted by
// name.
func (d *Dir) list(sub string) (names []string, sizes []int64, err error) {
	ents, err := os.ReadDir(d.join(sub, ""))
	if err != nil {
		return nil, nil, err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return nil, nil, err
		}
		names = append(names, e.Name())
		sizes = append(sizes, info.Size())
	}
	sort.Sort(&byName{names, sizes})
	return names, sizes, nil
}

type byName struct {
	names []string
	sizes []int64
}

func (s *byName) Len() int           { return len(s.names) }
func (s *byName) Less(i, j int) bool { return s.names[i] < s.names[j] }
func (s *byName) Swap(i, j int) {
	s.names[i], s.names[j] = s.names[j], s.names[i]
	s.sizes[i], s.sizes[j] = s.sizes[j], s.sizes[i]
}

// syncDir fsyncs the directory itself so created/removed/renamed names are
// durable.
func (d *Dir) syncDir(sub string) error {
	df, err := os.Open(d.join(sub, ""))
	if err != nil {
		return err
	}
	defer df.Close()
	return df.Sync()
}

// ReadCurrent returns the manifest journal name recorded in CURRENT, or ""
// if no CURRENT file exists yet.
func (d *Dir) ReadCurrent() (string, error) {
	b, err := os.ReadFile(d.join("", currentName))
	if err != nil {
		if os.IsNotExist(err) {
			return "", nil
		}
		return "", err
	}
	return strings.TrimSpace(string(b)), nil
}

// SetCurrent atomically points CURRENT at name: write a temp file, fsync
// it, rename over CURRENT, fsync the directory. A crash leaves either the
// old pointer or the new one, never a torn file.
func (d *Dir) SetCurrent(name string) error {
	tmp := d.join("", currentName+".tmp")
	os.Remove(tmp)
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.WriteString(name + "\n"); err == nil {
		err = f.Sync()
	} else {
		f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, d.join("", currentName)); err != nil {
		return err
	}
	return d.syncDir("")
}

// RemoveExtraFiles deletes every regular file under sub whose name is not
// in keep, returning the removed names. Recovery uses it to clear SSTs
// that were written but never committed to the manifest journal.
func (d *Dir) RemoveExtraFiles(sub string, keep map[string]bool) ([]string, error) {
	names, _, err := d.list(sub)
	if err != nil {
		return nil, err
	}
	var removed []string
	for _, n := range names {
		if keep[n] {
			continue
		}
		if err := d.remove(sub, n); err != nil {
			return removed, err
		}
		removed = append(removed, n)
	}
	if len(removed) > 0 {
		if err := d.syncDir(sub); err != nil {
			return removed, err
		}
	}
	return removed, nil
}

// file is an os.File that routes writes, truncates, and syncs through the
// Dir's fault injector, tagged with the fault scope of the subdirectory it
// lives in so scoped arming can target one failure domain. It satisfies
// simdev.BackingFile.
type file struct {
	d     *Dir
	f     *os.File
	scope FaultScope
}

func (f *file) ReadAt(p []byte, off int64) error {
	_, err := f.f.ReadAt(p, off)
	return err
}

func (f *file) WriteAt(p []byte, off int64) error {
	allow, ferr := f.d.faults.onIO(f.scope, len(p))
	if allow < len(p) {
		if allow > 0 {
			f.f.WriteAt(p[:allow], off)
		}
		if ferr == nil {
			// Torn write: the caller sees success, the tail is gone.
			return nil
		}
		return ferr
	}
	if ferr != nil {
		return ferr
	}
	_, err := f.f.WriteAt(p, off)
	return err
}

func (f *file) Truncate(size int64) error {
	if _, ferr := f.d.faults.onIO(f.scope, 0); ferr != nil {
		return ferr
	}
	return f.f.Truncate(size)
}

func (f *file) Sync() error {
	if _, ferr := f.d.faults.onIO(f.scope, 0); ferr != nil {
		return ferr
	}
	return fdatasync(f.f)
}

func (f *file) Close() error {
	f.d.untrack(f)
	return f.f.Close()
}
