// Command prismbench regenerates the tables and figures of the PrismDB
// paper's evaluation (§7) on the simulated two-tier storage substrate.
//
// Usage:
//
//	prismbench -list                  # experiment IDs and descriptions
//	prismbench -exp table2            # one experiment
//	prismbench -exp all               # everything
//	prismbench -exp fig10 -scale 4    # 4× the default dataset/ops
//
// The experiment set lives in the bench package's registry
// (bench.Experiments); this command is a thin flag wrapper over it. Every
// entry is seeded and driven serially, so its output is exact: the same
// tables at -keys 4000 -ops 5000 -value 512 are pinned byte for byte in
// bench/testdata/golden (TestExperimentGoldens; `make goldens` rewrites them).
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"github.com/prismdb/prismdb/bench"
)

func main() {
	exp := flag.String("exp", "all",
		"experiment id ("+strings.Join(bench.ExperimentIDs(), "|")+"|all)")
	list := flag.Bool("list", false, "list experiments and exit")
	scale := flag.Float64("scale", 1, "dataset/ops multiplier over the CI-friendly default (paper scale ≈ 5000)")
	keys := flag.Int("keys", 0, "override dataset keys")
	ops := flag.Int("ops", 0, "override measured ops")
	valueSize := flag.Int("value", 0, "override object size in bytes")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-9s %s\n", e.ID, e.Desc)
		}
		return
	}

	sc := bench.DefaultScale().Mul(*scale)
	if *keys > 0 {
		sc.Keys = *keys
	}
	if *ops > 0 {
		sc.Ops = *ops
		sc.WarmupOps = *ops / 2
	}
	if *valueSize > 0 {
		sc.ValueSize = *valueSize
	}

	if err := bench.RunExperiment(os.Stdout, *exp, sc); err != nil {
		fmt.Fprintf(os.Stderr, "prismbench: %v\n", err)
		os.Exit(1)
	}
}
