package lsm

import (
	"bytes"
	"fmt"
	"sort"
	"time"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/sst"
)

// maxBackgroundRounds bounds compaction work per trigger to avoid livelock
// (notably under RA pinning, which deliberately re-compacts pinned data).
const maxBackgroundRounds = 32

// levelTarget returns level i's target size in bytes (L0 is count-based).
func (db *DB) levelTarget(level int) int64 {
	t := db.cfg.L1TargetBytes
	for i := 1; i < level; i++ {
		t *= int64(db.cfg.LevelRatio)
	}
	return t
}

func (db *DB) levelBytes(level int) int64 {
	var n int64
	for _, f := range db.levels[level] {
		n += f.t.Size()
	}
	return n
}

// background runs flushes and compactions on a job clock starting at the
// caller's time; its I/O delays foreground requests through device queueing
// and, when L0 saturates, through explicit write stalls.
func (db *DB) background(clk *simdev.Clock) {
	memFull := db.mem.bytes >= db.cfg.MemtableBytes
	if !memFull && db.pickCompactionLevel() < 0 {
		return
	}
	if memFull {
		// The dedicated flush thread runs the flush; it chains after its
		// previous job.
		fClk := simdev.NewBGClock()
		fClk.AdvanceTo(clk.Now())
		fClk.AdvanceTo(db.flushThread)
		db.flush(fClk)
		db.flushThread = fClk.Now()
		if fClk.Now() > db.compEndAt {
			db.compEndAt = fClk.Now()
		}
	}
	// Compaction rounds run on a bounded pool of background threads; each
	// round chains onto the least-busy thread.
	for round := 0; round < maxBackgroundRounds; round++ {
		level := db.pickCompactionLevel()
		if level < 0 {
			break
		}
		ti := 0
		for i := 1; i < len(db.bgThreads); i++ {
			if db.bgThreads[i] < db.bgThreads[ti] {
				ti = i
			}
		}
		compClk := simdev.NewBGClock()
		compClk.AdvanceTo(clk.Now())
		compClk.AdvanceTo(db.bgThreads[ti])
		db.compactLevel(compClk, level)
		db.bgThreads[ti] = compClk.Now()
		if compClk.Now() > db.compEndAt {
			db.compEndAt = compClk.Now()
		}
	}
}

// flush writes the memtable as a new L0 SST.
func (db *DB) flush(compClk *simdev.Clock) {
	if len(db.mem.recs) == 0 {
		return
	}
	dev := db.deviceForLevel(0)
	w := sst.NewWriter(dev, db.blockCache, dev.NextFileName("lsm-l0"), sst.DefaultBlockSize)
	db.mem.ascend(nil, func(r sst.Record) bool {
		w.Add(r)
		return true
	})
	t, err := w.Finish(compClk)
	if err != nil {
		panic(fmt.Sprintf("lsm: flush: %v", err))
	}
	db.installTable(t, dev, 0)
	db.mem = memtable{}
	db.stats.Flushes++
}

// installTable appends/inserts a table into a level, keeping L1+ sorted.
func (db *DB) installTable(t *sst.Table, dev *simdev.Device, level int) {
	if db.cfg.Mode == L2Cache {
		t.SetTierCache(db.nvmCache, db.cfg.NVM)
	}
	lf := &levelFile{t: t, dev: dev}
	db.levels[level] = append(db.levels[level], lf)
	if level > 0 {
		sort.Slice(db.levels[level], func(i, j int) bool {
			return bytes.Compare(db.levels[level][i].t.Smallest(), db.levels[level][j].t.Smallest()) < 0
		})
	}
}

// pickCompactionLevel returns the level most in need of compaction, or -1.
func (db *DB) pickCompactionLevel() int {
	if len(db.levels[0]) >= l0CompactionTrigger {
		return 0
	}
	for level := 1; level < numLevels-1; level++ {
		if db.levelBytes(level) > db.levelTarget(level) {
			return level
		}
	}
	return -1
}

// compactLevel merges inputs from level into level+1 (classic leveled
// compaction). In RA mode, compactions that cross the NVM→flash boundary
// pin popular keys back into the source level (§3's pinned compactions).
func (db *DB) compactLevel(compClk *simdev.Clock, level int) {
	target := level + 1
	compStart := compClk.Now()
	var inputs []*levelFile
	if level == 0 {
		inputs = append(inputs, db.levels[0]...)
	} else {
		files := db.levels[level]
		if len(files) == 0 {
			return
		}
		db.cursor[level] = (db.cursor[level] + 1) % len(files)
		inputs = append(inputs, files[db.cursor[level]])
	}
	lo, hi := keySpan(inputs)
	var overlaps []*levelFile
	for _, f := range db.levels[target] {
		if f.t.Overlaps(lo, hi) {
			overlaps = append(overlaps, f)
		}
	}

	// Read every input record (sequential I/O on each file's device).
	type src struct {
		recs []sst.Record
		pos  int
	}
	newest := map[string]sst.Record{}
	order := []string{}
	readAll := func(fs []*levelFile, newestFirst bool) {
		seq := fs
		if newestFirst {
			seq = make([]*levelFile, len(fs))
			for i := range fs {
				seq[i] = fs[len(fs)-1-i]
			}
		}
		for _, f := range seq {
			f.t.ReadAll(compClk, func(r sst.Record) error {
				// Records are views of the input's storage, or of copies
				// ReadAll made: the inputs are dropped only after the
				// outputs are written.
				if _, ok := newest[string(r.Key)]; !ok {
					newest[string(r.Key)] = r
					order = append(order, string(r.Key))
				} else if newest[string(r.Key)].Version < r.Version {
					newest[string(r.Key)] = r
				}
				return nil
			})
			// Compaction reads stream through the same buffered-I/O
			// path as foreground reads, evicting hot entries — the
			// DRAM pollution the paper attributes to LSM compactions
			// (§7.2).
			db.blockCache.Touch(f.t.Name(), 0, f.t.Size())
		}
	}
	readAll(inputs, level == 0) // L0: newest file wins; disjoint otherwise
	readAll(overlaps, false)
	sort.Strings(order)
	db.chargeCPU(compClk, time.Duration(len(order))*mergePerKey)
	db.stats.CompactionKeys += int64(len(order))

	// RA pinning applies when data would cross NVM → flash — and only
	// while the NVM device has room for the retained files (pinning
	// cannot grow the fast tier).
	raBoundary := db.cfg.Mode == RA &&
		db.deviceForLevel(level) == db.cfg.NVM &&
		db.deviceForLevel(target) == db.cfg.Flash &&
		db.cfg.NVM.Free() > 4*db.cfg.TargetSSTBytes

	targetDev := db.deviceForLevel(target)
	outW := newLevelWriter(db, compClk, targetDev, target)
	var pinW *levelWriter
	if raBoundary {
		pinW = newLevelWriter(db, compClk, db.cfg.NVM, level)
	}
	lastLevel := target == numLevels-1
	for _, k := range order {
		rec := newest[k]
		if rec.Tombstone && lastLevel {
			continue // tombstones die at the bottom
		}
		if raBoundary {
			if clock, tracked := db.trk.Clock(rec.Key); tracked && clock >= raPinClock {
				pinW.add(rec)
				db.stats.PinnedKeys++
				continue
			}
		}
		outW.add(rec)
	}

	newOut := outW.finish()
	var pinned []*sst.Table
	if pinW != nil {
		pinned = pinW.finish()
	}

	// Swap in outputs, drop inputs.
	db.removeFiles(level, inputs)
	db.removeFiles(target, overlaps)
	for _, t := range newOut {
		db.installTable(t, t.Device(), target)
	}
	for _, t := range pinned {
		db.installTable(t, db.cfg.NVM, level)
	}
	for _, f := range append(append([]*levelFile{}, inputs...), overlaps...) {
		db.dropFile(f)
	}

	db.stats.Compactions++
	dur := time.Duration(compClk.Now() - compStart)
	// Attribute the whole compaction's time by output tier (Fig 2a).
	if targetDev == db.cfg.NVM {
		db.stats.CompactionTimeNVM += dur
	} else {
		db.stats.CompactionTimeFlash += dur
	}
}

// keySpan returns the min/max keys across files.
func keySpan(fs []*levelFile) (lo, hi []byte) {
	for _, f := range fs {
		if lo == nil || bytes.Compare(f.t.Smallest(), lo) < 0 {
			lo = f.t.Smallest()
		}
		if hi == nil || bytes.Compare(f.t.Largest(), hi) > 0 {
			hi = f.t.Largest()
		}
	}
	return lo, hi
}

func (db *DB) removeFiles(level int, rm []*levelFile) {
	rmSet := map[*levelFile]bool{}
	for _, f := range rm {
		rmSet[f] = true
	}
	kept := db.levels[level][:0]
	for _, f := range db.levels[level] {
		if !rmSet[f] {
			kept = append(kept, f)
		}
	}
	db.levels[level] = kept
}

// dropFile deletes a dead SST from its device and caches.
func (db *DB) dropFile(f *levelFile) {
	db.blockCache.InvalidateFile(f.t.Name(), f.t.Size())
	if db.nvmCache != nil {
		db.nvmCache.InvalidateFile(f.t.Name(), f.t.Size())
	}
	f.dev.RemoveFile(f.t.Name())
}

// levelWriter splits merged output into target-size SSTs.
type levelWriter struct {
	db      *DB
	compClk *simdev.Clock
	dev     *simdev.Device
	curDev  *simdev.Device // device of the file currently being written
	level   int
	w       *sst.Writer
	out     []*sst.Table
}

func newLevelWriter(db *DB, compClk *simdev.Clock, dev *simdev.Device, level int) *levelWriter {
	return &levelWriter{db: db, compClk: compClk, dev: dev, level: level}
}

func (lw *levelWriter) add(rec sst.Record) {
	if lw.w == nil {
		// Placement is re-evaluated per output file: Mutant's dynamic
		// placement may run out of NVM mid-compaction and must spill
		// subsequent files to flash.
		dev := lw.dev
		if lw.db.cfg.Mode == MutantMode {
			dev = lw.db.deviceForLevel(lw.level)
		}
		lw.curDev = dev
		name := dev.NextFileName(fmt.Sprintf("lsm-l%d", lw.level))
		lw.w = sst.NewWriterSize(dev, lw.db.blockCache, name, sst.DefaultBlockSize, int(lw.db.cfg.TargetSSTBytes))
	}
	if err := lw.w.Add(rec); err != nil {
		panic(fmt.Sprintf("lsm: compaction writer: %v", err))
	}
	if lw.w.EstimatedSize() >= lw.db.cfg.TargetSSTBytes {
		lw.cut()
	}
}

func (lw *levelWriter) cut() {
	if lw.w == nil || lw.w.Count() == 0 {
		return
	}
	t, err := lw.w.Finish(lw.compClk)
	if err != nil {
		panic(fmt.Sprintf("lsm: compaction finish: %v", err))
	}
	// Output writes pass through the page cache as well (pollution).
	lw.db.blockCache.Touch(t.Name(), 0, t.Size())
	lw.out = append(lw.out, t)
	lw.w = nil
}

func (lw *levelWriter) finish() []*sst.Table {
	lw.cut()
	return lw.out
}

// backgroundMutant runs Mutant's periodic file-temperature migration
// (§2: Mutant migrates cold LSM files to slow storage, hot files to NVM).
func (db *DB) backgroundMutant(clk *simdev.Clock) {
	if db.cfg.Mode != MutantMode || db.opsCount%int64(db.cfg.MigrateEvery) != 0 || db.opsCount == 0 {
		return
	}
	compClk := simdev.NewBGClock()
	compClk.AdvanceTo(clk.Now())

	// Rank every file by temperature; hottest files claim NVM capacity.
	type scored struct {
		f     *levelFile
		level int
	}
	var all []scored
	for level := range db.levels {
		for _, f := range db.levels[level] {
			all = append(all, scored{f, level})
		}
	}
	for _, s := range all {
		s.f.reads /= 2 // exponential decay, so temperature is recent
	}
	sort.Slice(all, func(i, j int) bool { return all[i].f.reads > all[j].f.reads })
	budget := db.cfg.NVM.Params().Capacity * 9 / 10
	wantNVM := map[*levelFile]bool{}
	var used int64
	for _, s := range all {
		if used+s.f.t.Size() > budget {
			break
		}
		wantNVM[s.f] = true
		used += s.f.t.Size()
	}
	// Demote cold files first so the fast tier has room, then promote.
	for i := len(all) - 1; i >= 0; i-- {
		s := all[i]
		if !wantNVM[s.f] && s.f.dev == db.cfg.NVM {
			db.migrateFile(compClk, s.f, s.level, db.cfg.Flash)
		}
	}
	for _, s := range all {
		if wantNVM[s.f] && s.f.dev != db.cfg.NVM &&
			db.cfg.NVM.Free() > s.f.t.Size()+db.cfg.TargetSSTBytes {
			db.migrateFile(compClk, s.f, s.level, db.cfg.NVM)
		}
	}
	if compClk.Now() > db.compEndAt {
		db.compEndAt = compClk.Now()
	}
}

// migrateFile copies an SST to another tier (read whole file + write whole
// file) and swaps the placement, as Mutant does at file granularity.
func (db *DB) migrateFile(compClk *simdev.Clock, f *levelFile, level int, dst *simdev.Device) {
	w := sst.NewWriter(dst, db.blockCache, dst.NextFileName(fmt.Sprintf("lsm-mig-l%d", level)), sst.DefaultBlockSize)
	err := f.t.ReadAll(compClk, func(r sst.Record) error { return w.Add(r) })
	if err != nil {
		panic(fmt.Sprintf("lsm: migrate read: %v", err))
	}
	nt, err := w.Finish(compClk)
	if err != nil {
		panic(fmt.Sprintf("lsm: migrate write: %v", err))
	}
	db.stats.Migrations++
	db.stats.MigrationBytes += f.t.Size()
	db.removeFiles(level, []*levelFile{f})
	reads := f.reads
	db.dropFile(f)
	db.installTable(nt, dst, level)
	// Preserve temperature on the migrated copy.
	for _, lf := range db.levels[level] {
		if lf.t == nt {
			lf.reads = reads
		}
	}
}
