package core

import (
	"strings"
	"testing"
	"time"

	"github.com/prismdb/prismdb/internal/simdev"
	"github.com/prismdb/prismdb/internal/slab"
)

// TestCommitFreesIssueConcurrently holds a merge round's commit to the batch
// model: its slot frees are independent NVM page writes issued together at
// the commit's start, so N of them take about ⌈N/lanes⌉ write service times,
// not N, and the commit issues exactly N writes. Each chunk's credit matures
// no earlier than one write after the issue (never before the writes that pay
// for it), compQueue stays in endAt order, and both compaction modes end the
// commit at the same virtual time. The commit runs on a plan of N
// NVM-resident records, the shape mergeRound hands it.
func TestCommitFreesIssueConcurrently(t *testing.T) {
	const n = 75
	ends := map[CompactionMode]int64{}
	for _, mode := range []CompactionMode{CompactionSync, CompactionAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			o := testOptions()
			o.CompactionMode = mode
			db, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			for i := 0; i < n; i++ {
				mustPut(t, db, key(i), val(i, 100))
			}
			p := db.parts[0]
			p.mu.Lock()
			defer p.mu.Unlock()
			p.merge.actions = p.merge.actions[:0]
			for i := 0; i < n; i++ {
				v, ok := p.index.Get(key(i))
				if !ok {
					t.Fatalf("key %d has no index entry", i)
				}
				p.merge.actions = append(p.merge.actions, commitAction{key: key(i), loc: slab.Loc(v)})
			}
			nvm := p.opts.NVM
			par := nvm.Params()
			svc := int64(par.WriteLatency) + simdev.PageSize*int64(time.Second)/par.WriteBandwidth
			lanes := int64(par.Channels)

			compClk := simdev.NewBGClock()
			compClk.AdvanceTo(p.clk.Now())
			issue := compClk.Now()
			writes0, banked0 := nvm.Stats().WriteOps, len(p.compQueue)
			p.slabs.PinEpoch()
			var local Stats
			p.commitRound(compClk, nil, nil, &local)
			p.zeroFreed(p.slabs.UnpinEpochDeferred())

			if w := nvm.Stats().WriteOps - writes0; w != n {
				t.Fatalf("the commit issued %d NVM writes for %d frees", w, n)
			}
			if local.Demoted != n {
				t.Fatalf("the commit demoted %d of %d planned records", local.Demoted, n)
			}
			span, bound := compClk.Now()-issue, ((n+lanes-1)/lanes+1)*svc
			t.Logf("%d frees on %d lanes: commit took %d ns = %.1f write service times (serial: %d)",
				n, lanes, span, float64(span)/float64(svc), n)
			if span > bound {
				t.Fatalf("the commit of %d frees took %d ns, want ≤ %d (⌈N/%d⌉+1 writes of %d ns)",
					n, span, bound, lanes, svc)
			}
			jobs := p.compQueue[banked0:]
			if len(jobs) == 0 {
				t.Fatal("the commit banked no credit")
			}
			for _, j := range jobs {
				if j.endAt < issue+svc {
					t.Fatalf("credit of %d B banked at %d, before the first free it pays for completes at %d",
						j.freed, j.endAt, issue+svc)
				}
			}
			for i := 1; i < len(p.compQueue); i++ {
				if p.compQueue[i].endAt < p.compQueue[i-1].endAt {
					t.Fatalf("compQueue out of order at %d: %d after %d", i, p.compQueue[i].endAt, p.compQueue[i-1].endAt)
				}
			}
			ends[mode] = compClk.Now()
		})
	}
	if ends[CompactionSync] != ends[CompactionAsync] {
		t.Fatalf("the commit ends at %d in sync mode and %d in async mode", ends[CompactionSync], ends[CompactionAsync])
	}
}

// TestCommitFreeErrorDegrades: a free the slab manager refuses — under the
// round's pinned epoch that can only be a loc outside the slab files — is
// not a reclaim. The action keeps its index entry and its slot's space, the
// other actions commit, and the DB degrades; without a health tracker it
// panics.
func TestCommitFreeErrorDegrades(t *testing.T) {
	db, err := Open(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for i := 0; i < 3; i++ {
		mustPut(t, db, key(i), val(i, 100))
	}
	p := db.parts[0]
	p.mu.Lock()
	defer p.mu.Unlock()
	bad := slab.NewLoc(len(p.slabs.Classes())+1, 0)
	p.index.Insert(key(1), uint64(bad)) // the plan below must validate
	p.merge.actions = p.merge.actions[:0]
	for i := 0; i < 3; i++ {
		v, ok := p.index.Get(key(i))
		if !ok {
			t.Fatalf("key %d has no index entry", i)
		}
		p.merge.actions = append(p.merge.actions, commitAction{key: key(i), loc: slab.Loc(v)})
	}
	commit := func() int64 {
		compClk := simdev.NewBGClock()
		compClk.AdvanceTo(p.clk.Now())
		p.slabs.PinEpoch()
		var local Stats
		freed := p.commitRound(compClk, nil, nil, &local)
		p.zeroFreed(p.slabs.UnpinEpochDeferred())
		return freed
	}

	live := p.slabs.LiveBytes()
	freed := commit()
	if h := db.Health(); h.State != StateDegraded || !strings.Contains(h.Cause, "slab free") {
		t.Fatalf("health after a refused free: %+v, want degraded by the slab free", h)
	}
	if v, ok := p.index.Get(key(1)); !ok || slab.Loc(v) != bad {
		t.Fatal("the refused free dropped its index entry")
	}
	for _, i := range []int{0, 2} {
		if _, ok := p.index.Get(key(i)); ok {
			t.Fatalf("key %d: the free beside the refused one did not commit", i)
		}
	}
	if got := live - p.slabs.LiveBytes(); freed != got || p.stats.Demoted != 2 {
		t.Fatalf("the commit reported %d B freed and %d demoted; the slabs freed %d B over 2 slots",
			freed, p.stats.Demoted, got)
	}

	p.health = nil
	defer func() { p.health = db.health }()
	p.merge.actions = append(p.merge.actions[:0], commitAction{key: key(1), loc: bad})
	defer func() {
		if recover() == nil {
			t.Fatal("a refused free without a health tracker did not panic")
		}
		p.slabs.UnpinEpochDeferred()
	}()
	commit()
}
