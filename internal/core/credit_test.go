package core

import (
	"bytes"
	"math/rand"
	"testing"
)

// TestAdmissionCreditConserved enforces the stated bound on the admission
// resource (§4.2 rate limiting): every NVM byte is accounted for exactly once.
// What a writer may still take now (spaceCredit) plus what committed rounds
// have reclaimed but not yet matured (compQueue) equals the room the budget
// has left — so credit can neither leak away, stalling writers that have
// room, nor be minted, admitting writers that have none. The churn mixes
// fresh inserts, overwrites that change size class, deletes (tombstones over
// flash versions included) and reads, in write-heavy phases that demote in
// hundreds of merge rounds and read-heavy ones that fire the read trigger, so
// promotionRound's debits and the rounds it arms are in the sum. Checked in
// both compaction modes, at points during the churn and after it.
func TestAdmissionCreditConserved(t *testing.T) {
	for _, mode := range []CompactionMode{CompactionSync, CompactionAsync} {
		t.Run(mode.String(), func(t *testing.T) {
			o := promotionOptions()
			o.CompactionMode = mode
			o.NVMBudget = 256 << 10
			o.ReadTrigger = ReadTriggerOptions{
				Enabled: true, Epoch: 800, Cooldown: 400, MinFlashFraction: 0.05,
			}
			db, err := Open(o)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			p := db.parts[0]
			check := func(step int) {
				t.Helper()
				p.mu.Lock()
				defer p.mu.Unlock()
				// A background round installs its manifest before it takes
				// the lock to commit: the law is stated between rounds.
				p.drainLocked()
				banked := p.spaceCredit
				for _, j := range p.compQueue {
					banked += j.freed
				}
				if room := p.nvmBudget - p.usage(); banked != room {
					t.Fatalf("step %d: spaceCredit %d + maturing reclaim %d = %d, but budget − usage = %d (off by %d)",
						step, p.spaceCredit, banked-p.spaceCredit, banked, room, banked-room)
				}
			}

			const keys, steps, phase = 600, 120000, 3000
			model := make([][]byte, keys)
			rng := rand.New(rand.NewSource(7))
			for step := 0; step < steps; step++ {
				i := rng.Intn(keys)
				writePct := 40
				if n := step / phase; n%2 == 1 {
					// Read-heavy phase, the read trigger's turn: most reads go
					// to fifty keys the write phase before it treated like any
					// others, so that many of them are on flash.
					writePct = 4
					if rng.Intn(10) < 8 {
						i = (n*50 + rng.Intn(50)) % keys
					}
				}
				switch r := rng.Intn(100); {
				case r < writePct || model[i] == nil:
					model[i] = stamped(i, step, 100+rng.Intn(700))
					if _, err := db.Put(key(i), model[i]); err != nil {
						t.Fatalf("step %d put: %v", step, err)
					}
				case r < writePct+writePct/8:
					if _, err := db.Delete(key(i)); err != nil {
						t.Fatalf("step %d delete: %v", step, err)
					}
					model[i] = nil
				default:
					v, _, _, err := db.Get(key(i))
					if err != nil || !bytes.Equal(v, model[i]) {
						t.Fatalf("step %d: key %d read back wrong (err %v)", step, i, err)
					}
				}
				if step%(2*phase/3) == 0 {
					check(step)
				}
			}
			check(steps)
			st := db.Stats()
			t.Logf("%d rounds (%d read-triggered, %d out of room), %d promoted, %d demoted, %d commit conflicts",
				st.Compactions, st.ReadTriggeredComps, st.PromoteNoRoom, st.Promoted, st.Demoted, st.CommitConflicts)
			if st.Compactions-st.ReadTriggeredComps < 200 || st.Promoted == 0 ||
				st.Deletes == 0 || st.SlabMoves == 0 || st.DroppedTombstones == 0 {
				t.Fatalf("the churn must exercise every way credit moves: %d deletes, %d slab moves, %d tombstones dropped",
					st.Deletes, st.SlabMoves, st.DroppedTombstones)
			}
		})
	}
}
