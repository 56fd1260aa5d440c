package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
)

// Journal is the manifest journal: an append-only log of SST add/remove
// edits, one per compaction commit, named by the CURRENT pointer file.
// Because each edit is a single framed append followed by an fdatasync, a
// compaction commit is crash-atomic: after a crash the journal either
// contains the whole edit or — if the final frame is torn — none of it, and
// a torn final edit is safe to drop because the commit it described was
// never acknowledged to the engine.
//
// When the journal grows past rotateBytes, it is compacted: a fresh
// MANIFEST-NNNNNN is written containing one snapshot edit per partition,
// fsynced, and CURRENT is atomically swung to it before the old journal is
// deleted.
type Journal struct {
	d *Dir

	mu    sync.Mutex
	f     *file
	seq   uint64
	size  int64
	live  map[int]map[string]bool // partition → live SST file names
	edits int64
	err   error // sticky: CURRENT's on-disk referent can no longer be proven

	rotateBytes int64
}

const journalRotateBytes = 1 << 20

func journalName(seq uint64) string { return fmt.Sprintf("MANIFEST-%06d", seq) }

// OpenJournal replays (or creates) the manifest journal of d. A CURRENT
// file that names a missing journal is a loud error — that state is not
// reachable by crashing, only by losing data.
func OpenJournal(d *Dir) (*Journal, error) {
	j := &Journal{
		d:           d,
		live:        make(map[int]map[string]bool),
		rotateBytes: journalRotateBytes,
	}
	cur, err := d.ReadCurrent()
	if err != nil {
		return nil, err
	}
	// Remove manifest journals CURRENT does not name: leftovers of a crash
	// mid-rotation (an old journal whose removal didn't land, or a new one
	// whose CURRENT swing didn't) — or, with no CURRENT at all, a crash
	// during the very first open. They are unreferenced garbage, but a
	// surviving next-sequence file would collide with a later O_EXCL create
	// and wedge the journal.
	if names, _, lerr := d.list(""); lerr == nil {
		removed := false
		for _, n := range names {
			if _, ok := parseJournalName(n); ok && n != cur {
				if d.remove("", n) == nil {
					removed = true
				}
			}
		}
		if removed {
			d.syncDir("")
		}
	}
	if cur == "" {
		// Fresh directory: create MANIFEST-000001 and point CURRENT at it.
		j.seq = 1
		f, err := d.create("", journalName(j.seq))
		if err != nil {
			return nil, err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, err
		}
		if err := d.syncDir(""); err != nil {
			f.Close()
			return nil, err
		}
		if err := d.SetCurrent(journalName(j.seq)); err != nil {
			f.Close()
			return nil, err
		}
		j.f = f
		return j, nil
	}
	seq, ok := parseJournalName(cur)
	if !ok {
		return nil, fmt.Errorf("storage: CURRENT names %q, not a manifest journal", cur)
	}
	f, size, err := d.openExisting("", cur)
	if err != nil {
		return nil, fmt.Errorf("storage: CURRENT points at missing manifest journal %s: %w", cur, err)
	}
	data := make([]byte, size)
	if size > 0 {
		if err := f.ReadAt(data, 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: %s: %w", cur, err)
		}
	}
	end, frames, torn, err := scanFrames(cur, data, true, j.applyEdit)
	if err != nil {
		f.Close()
		return nil, err
	}
	if torn > 0 {
		// The torn edit's compaction was never acknowledged; cut it.
		if err := f.Truncate(end); err == nil {
			err = f.Sync()
		}
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("storage: %s: truncating torn edit: %w", cur, err)
		}
	}
	j.f, j.seq, j.size, j.edits = f, seq, end, frames
	return j, nil
}

func parseJournalName(name string) (uint64, bool) {
	var seq uint64
	n, err := fmt.Sscanf(name, "MANIFEST-%d", &seq)
	return seq, err == nil && n == 1
}

// Edit payload: [uvarint partition][uvarint nAdd][names][uvarint nRemove][names],
// each name length-prefixed with a uvarint.
func appendEdit(buf []byte, part int, add, remove []string) []byte {
	var tmp [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf = append(buf, tmp[:n]...)
	}
	putUvarint(uint64(part))
	putUvarint(uint64(len(add)))
	for _, s := range add {
		putUvarint(uint64(len(s)))
		buf = append(buf, s...)
	}
	putUvarint(uint64(len(remove)))
	for _, s := range remove {
		putUvarint(uint64(len(s)))
		buf = append(buf, s...)
	}
	return buf
}

// applyEdit decodes one edit payload into the live set.
func (j *Journal) applyEdit(payload []byte) error {
	part, add, remove, err := decodeEdit(payload)
	if err != nil {
		return err
	}
	set := j.live[part]
	if set == nil {
		set = make(map[string]bool)
		j.live[part] = set
	}
	for _, s := range add {
		set[s] = true
	}
	for _, s := range remove {
		delete(set, s)
	}
	return nil
}

// decodeEdit is appendEdit's inverse. It accepts only what appendEdit
// writes: every uvarint in its shortest form and no byte after the last
// name. It allocates in proportion to the payload, whatever counts the
// payload claims.
func decodeEdit(payload []byte) (part int, add, remove []string, err error) {
	u := func() (uint64, bool) {
		v, n := binary.Uvarint(payload)
		if n <= 0 || n != uvarintLen(v) {
			return 0, false
		}
		payload = payload[n:]
		return v, true
	}
	names := func(what string) ([]string, error) {
		n, ok := u()
		if !ok {
			return nil, fmt.Errorf("storage: manifest edit: bad %s count", what)
		}
		var out []string
		for i := uint64(0); i < n; i++ {
			l, ok := u()
			if !ok || uint64(len(payload)) < l {
				return nil, fmt.Errorf("storage: manifest edit: bad %s name", what)
			}
			out = append(out, string(payload[:l]))
			payload = payload[l:]
		}
		return out, nil
	}
	p, ok := u()
	if !ok {
		return 0, nil, nil, fmt.Errorf("storage: manifest edit: bad partition")
	}
	if add, err = names("add"); err != nil {
		return 0, nil, nil, err
	}
	if remove, err = names("remove"); err != nil {
		return 0, nil, nil, err
	}
	if len(payload) > 0 {
		return 0, nil, nil, fmt.Errorf("storage: manifest edit: %d bytes after the last name", len(payload))
	}
	return int(p), add, remove, nil
}

// uvarintLen is the length of v's shortest uvarint encoding.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// LogEdit durably records one SST add/remove edit for a partition. It
// satisfies sst.Journal. The edit is on disk (fdatasync'd) when LogEdit
// returns; on error nothing may be assumed and the caller must fail the
// commit.
func (j *Journal) LogEdit(part int, add, remove []string) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	frame := appendFrame(nil, appendEdit(nil, part, add, remove))
	if err := j.f.WriteAt(frame, j.size); err != nil {
		return err
	}
	if err := j.f.Sync(); err != nil {
		return err
	}
	j.size += int64(len(frame))
	j.edits++
	// Mirror the edit into the live set only after it is durable.
	j.applyEdit(frame[frameHeaderLen:])
	if j.size >= j.rotateBytes {
		// Rotation is opportunistic: the edit above is already durable in
		// the live journal, so a cleanly-aborted rotation (partial file
		// removed, CURRENT untouched) must not fail the commit it rode on —
		// the journal just stays big and the next LogEdit retries. Only an
		// ambiguous CURRENT swing (j.err latched) fails this edit too: its
		// home journal can no longer be proven to be the one recovery reads.
		if rerr := j.rotateLocked(); rerr != nil && j.err != nil {
			return j.err
		}
	}
	return nil
}

// rotateLocked compacts the journal to one snapshot edit per partition in
// a fresh file, swings CURRENT, and removes the old file. A crash anywhere
// in between leaves a usable journal: CURRENT flips atomically, and until
// it flips the old journal remains complete.
//
// Failure discipline: every path that aborts with CURRENT provably still on
// the old journal removes the half-written MANIFEST-(seq+1) — leaving it
// would wedge the journal permanently, since the O_EXCL create of the same
// name fails on every retry while j.seq never advances. Only a SetCurrent
// failure whose outcome cannot be proven latches j.err: appending further
// edits to a file that recovery might not read would silently lose commits.
func (j *Journal) rotateLocked() error {
	nextSeq := j.seq + 1
	nf, err := j.d.create("", journalName(nextSeq))
	if err != nil {
		return err
	}
	var buf []byte
	parts := make([]int, 0, len(j.live))
	for p := range j.live {
		parts = append(parts, p)
	}
	sort.Ints(parts)
	for _, p := range parts {
		names := make([]string, 0, len(j.live[p]))
		for n := range j.live[p] {
			names = append(names, n)
		}
		sort.Strings(names)
		buf = appendFrame(buf, appendEdit(nil, p, names, nil))
	}
	werr := nf.WriteAt(buf, 0)
	if werr == nil {
		werr = nf.Sync()
	}
	if werr == nil {
		werr = j.d.syncDir("")
	}
	if werr != nil {
		// Clean abort: CURRENT was never touched, the new file is garbage.
		nf.Close()
		j.d.remove("", journalName(nextSeq))
		return werr
	}
	if err := j.d.SetCurrent(journalName(nextSeq)); err != nil {
		// SetCurrent renames before its directory fsync, so the pointer may
		// or may not have swung. Read the live view back to find out.
		cur, rerr := j.d.ReadCurrent()
		switch {
		case rerr == nil && cur == journalName(j.seq):
			// The rename never happened: the new file is unreferenced.
			nf.Close()
			j.d.remove("", journalName(nextSeq))
			return err
		case rerr == nil && cur == journalName(nextSeq):
			// Renamed, but the rename's durability is unknown (the directory
			// fsync failed). Future edits must go where the live pointer
			// points, and the swing must be durable before any of them is
			// acknowledged: retry the full SetCurrent (idempotent — rewrite
			// tmp, rename, fsync dir) and adopt the new journal on success.
			if serr := j.d.SetCurrent(journalName(nextSeq)); serr != nil {
				nf.Close()
				j.err = fmt.Errorf("storage: manifest rotation left CURRENT ambiguous: %w", serr)
				return j.err
			}
		default:
			nf.Close()
			j.err = fmt.Errorf("storage: manifest rotation left CURRENT ambiguous: %w", err)
			return j.err
		}
	}
	old, oldSeq := j.f, j.seq
	j.f, j.seq, j.size, j.edits = nf, nextSeq, int64(len(buf)), int64(len(parts))
	old.Close()
	j.d.remove("", journalName(oldSeq))
	j.d.syncDir("")
	return nil
}

// Live returns the sorted live SST names of one partition.
func (j *Journal) Live(part int) []string {
	j.mu.Lock()
	defer j.mu.Unlock()
	names := make([]string, 0, len(j.live[part]))
	for n := range j.live[part] {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// LiveAll returns the union of live SST names across partitions, for
// orphan cleanup.
func (j *Journal) LiveAll() map[string]bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	all := make(map[string]bool)
	for _, set := range j.live {
		for n := range set {
			all[n] = true
		}
	}
	return all
}

// Edits reports the number of edits in the current journal file (testing
// and stats hook).
func (j *Journal) Edits() int64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.edits
}
