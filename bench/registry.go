package bench

import (
	"fmt"
	"io"
	"strings"
)

// Experiment is one entry of the evaluation suite: a stable ID (the
// cmd/prismbench -exp argument), a one-line description, and a runner.
type Experiment struct {
	ID   string
	Desc string
	Run  func(w io.Writer, sc Scale) error
}

// Experiments returns the registry in canonical run order (what -exp all
// executes). cmd/prismbench derives its flag help, its -list output, and
// its dispatch from this list, so adding an experiment here is the whole
// job — there is no second list to keep in sync.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "device characteristics: endurance, cost, 4KB read latency",
			func(w io.Writer, sc Scale) error { return Table1(w) }},
		{"table2", "single-tier vs multi-tier on YCSB-A (Zipf 0.8)", Table2},
		{"fig2", "multi-tier RocksDB breakdowns: compaction share, read sources", Fig2},
		{"fig5", "tracker clock-value distributions across YCSB mixes", Fig5},
		{"fig6", "compaction policies: approx vs precise MSC vs random",
			func(w io.Writer, sc Scale) error { _, err := Fig6(w, sc); return err }},
		{"fig9", "throughput vs cost across device mixes", Fig9},
		{"fig10", "YCSB A-F throughput sweep across systems", Fig10},
		{"fig11", "skew sweep: throughput and p50 vs zipfian theta", Fig11},
		{"fig12", "device lifetime under production write rates",
			func(w io.Writer, sc Scale) error { _, err := Fig12(w, sc); return err }},
		{"fig13", "synchronous-logging (fsync WAL) comparison", Fig13},
		{"fig14a", "read latency CDFs", Fig14a},
		{"fig14b", "promotion ablation: NVM read ratio over time", Fig14b},
		{"fig14c", "pinning-threshold sweep", Fig14c},
		{"fig14d", "partition scaling", Fig14d},
		{"table5", "Twitter production-trace mixes", Table5},
		{"ycsbe", "scan-heavy YCSB-E: throughput and scan latency across systems", YCSBE},
		{"ablations", "power-of-k, SSTs per range and tracker size sweeps", Ablations},
	}
}

// ExperimentIDs returns the registry's IDs in run order.
func ExperimentIDs() []string {
	exps := Experiments()
	ids := make([]string, len(exps))
	for i, e := range exps {
		ids[i] = e.ID
	}
	return ids
}

// FindExperiment resolves an ID (case-insensitive).
func FindExperiment(id string) (Experiment, bool) {
	id = strings.ToLower(id)
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunExperiment executes one registry entry by ID, or every entry for
// "all", writing each experiment's output under a == header.
func RunExperiment(w io.Writer, id string, sc Scale) error {
	if strings.EqualFold(id, "all") {
		for _, e := range Experiments() {
			fmt.Fprintf(w, "\n== %s ==\n", e.ID)
			if err := e.Run(w, sc); err != nil {
				return fmt.Errorf("%s: %w", e.ID, err)
			}
		}
		return nil
	}
	e, ok := FindExperiment(id)
	if !ok {
		return fmt.Errorf("unknown experiment %q (have: %s)",
			id, strings.Join(ExperimentIDs(), " "))
	}
	fmt.Fprintf(w, "\n== %s ==\n", e.ID)
	if err := e.Run(w, sc); err != nil {
		return fmt.Errorf("%s: %w", e.ID, err)
	}
	return nil
}
