package bench

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from what the experiments print now (make goldens)")

// goldenScale is the one scale the goldens are taken at: small enough that
// the whole registry runs in ~15 s, large enough that every PrismDB run
// compacts. `prismbench -exp <id> -keys 4000 -ops 5000 -value 512` prints
// the same tables.
func goldenScale() Scale {
	return Scale{Keys: 4000, Ops: 5000, WarmupOps: 2500, ValueSize: 512}
}

const goldenDir = "testdata/golden"

func goldenPath(id string) string { return filepath.Join(goldenDir, id+".txt") }

func runExperiment(t *testing.T, e Experiment) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := e.Run(&buf, goldenScale()); err != nil {
		t.Fatalf("%s: %v", e.ID, err)
	}
	return buf.Bytes()
}

// firstDiff names the first line on which two outputs disagree.
func firstDiff(t *testing.T, what string, want, got []byte) {
	t.Helper()
	w, g := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			t.Errorf("%s, line %d:\n  want %q\n  got  %q\nfull output:\n%s", what, i+1, wl, gl, got)
			return
		}
	}
}

// ablationSweeps returns, for each table the ablations entry prints, the
// swept values: the first cell of every row under an "Ablation:" title and
// its header.
func ablationSweeps(out []byte) [][]string {
	var sweeps [][]string
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	for i := 0; i < len(lines); i++ {
		if strings.HasPrefix(lines[i], "Ablation:") {
			sweeps = append(sweeps, nil)
			i++ // the header row
		} else if n := len(sweeps) - 1; n >= 0 {
			sweeps[n] = append(sweeps[n], strings.Fields(lines[i])[0])
		}
	}
	return sweeps
}

// TestExperimentGoldens pins the reproduction itself: every entry of the
// registry (what `prismbench -list` prints) runs at goldenScale and its
// printed table must equal testdata/golden/<id>.txt byte for byte. The
// harness is seeded, the driver serial and compaction inline, so the output
// is exact; a policy or device-model change moves these numbers on purpose
// and lands with the diff `make goldens` produces.
func TestExperimentGoldens(t *testing.T) {
	if raceEnabled {
		t.Skip("150 s under the race detector, and single-goroutine throughout; `go test ./bench/` runs it")
	}
	ids := map[string]bool{}
	for _, id := range ExperimentIDs() {
		ids[id] = true
	}
	files, err := filepath.Glob(goldenPath("*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if id := strings.TrimSuffix(filepath.Base(f), ".txt"); !ids[id] {
			if *update {
				if err := os.Remove(f); err != nil {
					t.Fatal(err)
				}
				continue
			}
			t.Errorf("%s pins no experiment: %q is not in the registry", f, id)
		}
	}

	// Determinism first, on a cheap entry that compacts under all three
	// policies: a failure here means the harness stopped being exact, not that
	// a number moved, so nothing is compared with a file after it.
	fig6, ok := FindExperiment("fig6")
	if !ok {
		t.Fatal("fig6, the determinism probe, left the registry: pick another cheap entry")
	}
	if a, b := runExperiment(t, fig6), runExperiment(t, fig6); !bytes.Equal(a, b) {
		firstDiff(t, "two runs of fig6 in one process differ", a, b)
		t.FailNow()
	}
	if *update {
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}

	for _, e := range Experiments() {
		t.Run(e.ID, func(t *testing.T) {
			got := runExperiment(t, e)
			if e.ID == "ablations" {
				want := [][]string{{"1", "4", "8", "16"}, {"1", "2", "4"}, {"20", "10", "5"}}
				if sweeps := ablationSweeps(got); !reflect.DeepEqual(sweeps, want) {
					t.Errorf("ablations sweeps %v, want k, i and tracker%% over %v", sweeps, want)
				}
			}
			if *update {
				if err := os.WriteFile(goldenPath(e.ID), got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath(e.ID))
			if err != nil {
				t.Fatalf("experiment %s is not pinned (run `make goldens` and review the new file): %v", e.ID, err)
			}
			if !bytes.Equal(want, got) {
				firstDiff(t, "experiment "+e.ID+" differs from "+goldenPath(e.ID)+" (`make goldens` rewrites it; review the diff)", want, got)
			}
		})
	}
}
