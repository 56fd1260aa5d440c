// Command benchmark is the repo's benchmark: four long workloads, six
// end-to-end metrics per workload, and a traced run that attributes them to
// layers. See README.md in this directory.
//
//	bash benchmark/run.sh --workload serve-get-hot --seed 1 --seconds 15 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupRepeats is how many times a run sets the workload up; setup_s is
// the median, and the last set-up is the one the timed phase runs on.
const setupRepeats = 3

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver parses: exactly these four keys.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workloadName := flag.String("workload", "all", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed: key choice and op mix")
	seconds := flag.Int("seconds", 15, "timed-phase length the op counts are sized for")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: probe pass and traced run, per-layer metrics")
	calibrate := flag.Int("calibrate", 0, "run two interleaved sets of N passes and compare their medians")
	flag.Parse()

	if err := run(*workloadName, *seed, *seconds, *trace, *calibrate); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(workloadName string, seed int64, seconds, trace, calibrate int) error {
	if seconds < 1 || seconds > 60 {
		return fmt.Errorf("-seconds must be in [1, 60], got %d", seconds)
	}
	if calibrate > 0 {
		return runCalibration(calibrate, seconds)
	}
	if err := os.MkdirAll(outDir(), 0o755); err != nil {
		return fmt.Errorf("output directory: %w", err)
	}
	todo := specs
	if workloadName != "all" {
		s, err := specByName(workloadName)
		if err != nil {
			return err
		}
		todo = []spec{s}
	}
	for _, s := range todo {
		res, err := runOne(s, seed, seconds, trace == 1)
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		if err := report(s, seed, seconds, trace, res); err != nil {
			return err
		}
		if !res.Correct {
			return fmt.Errorf("%s: %d of %d ops failed verification", s.name, res.Failed, res.Attempted)
		}
	}
	return nil
}

// runOne executes one workload once: the untraced end-to-end run, or the
// traced run with the probe pass.
func runOne(s spec, seed int64, seconds int, traced bool) (result, error) {
	switch {
	case traced:
		return runTraced(s, seed, seconds)
	case s.paper:
		return runPaperEndToEnd(s, seed, seconds)
	default:
		return runServedEndToEnd(s, seed, seconds)
	}
}

func runServedEndToEnd(s spec, seed int64, seconds int) (result, error) {
	var setups []float64
	var st *stack
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			if err := st.close(); err != nil {
				return result{}, fmt.Errorf("tear-down: %w", err)
			}
		}
		start := time.Now()
		var err error
		if st, err = setupServed(s, seed); err != nil {
			return result{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer st.close()
	// The torn-down deployments are garbage now; collect them outside both
	// the set-up and the timed phase.
	runtime.GC()
	ph, err := st.timed(s.measuredOps(seconds))
	if err != nil {
		return result{}, err
	}
	attempted, failed := st.counts()
	if s.durable {
		rec, err := st.reopenAndVerify()
		if err != nil {
			return result{}, err
		}
		attempted += rec.checked
		failed += rec.failed
	}
	m := ph.endToEndMetrics()
	m["setup_s"] = median(setups)
	return makeResult(endToEnd, m, attempted, failed), nil
}

// runPaperEndToEnd runs setupRepeats whole passes of a third of the op
// count each. The simulator pre-generates a pass's requests, so its host
// speed depends on how the heap behaves under a gigabyte of values; three
// shorter passes and their median are steadier than one long pass. The
// virtual metrics are bit-exact, so they must agree across the passes.
func runPaperEndToEnd(s spec, seed int64, seconds int) (result, error) {
	ops := s.measuredOps(seconds) / setupRepeats
	ops -= ops % (numConns * pipeDepth)
	var setups, speeds []float64
	var first paperPass
	var attempted, failed int64
	for i := 0; i < setupRepeats; i++ {
		runtime.GC()
		p, err := runPaper(s, seed, ops)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, p.setup.Seconds())
		speeds = append(speeds, p.res.HostKops*1000)
		a, f := p.counts()
		attempted, failed = attempted+a, failed+f
		if i == 0 {
			first = p
		} else if got, want := p.virtualFingerprint(), first.virtualFingerprint(); got != want {
			fmt.Printf("pass %d differs from pass 0 with the same seed:\n  %s\n  %s\n", i, got, want)
			failed++
		}
	}
	m := first.endToEndMetrics()
	m["ops_per_s"] = median(speeds)
	m["setup_s"] = median(setups)
	return makeResult(endToEnd, m, attempted, failed), nil
}

func makeResult(defs []metricDef, values map[string]float64, attempted, failed int64) result {
	res := result{
		Correct:   failed == 0 && attempted > 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	return res
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else if n > 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return 0
}

// outDir is where result files and traces go.
func outDir() string {
	if d := os.Getenv("PRISM_BENCH_OUT"); d != "" {
		return d
	}
	return "out"
}

// report prints the metrics by name with their units, saves the result
// with the environment fingerprint under out/, and prints the driver's
// JSON line last.
func report(s spec, seed int64, seconds, trace int, res result) error {
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d seconds %d trace %d: attempted %d failed %d\n",
		s.name, seed, seconds, trace, res.Attempted, res.Failed)
	for _, d := range defs {
		fmt.Printf("  %-36s %16.6g %s\n", d.name, res.Metrics[d.name].Value, d.unit)
	}
	file := struct {
		Workload    string      `json:"workload"`
		Seed        int64       `json:"seed"`
		Seconds     int         `json:"seconds"`
		Trace       int         `json:"trace"`
		Environment environment `json:"environment"`
		Result      result      `json:"result"`
	}{s.name, seed, seconds, trace, fingerprint(), res}
	data, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	name := fmt.Sprintf("result-%s-seed%d-trace%d.json", s.name, seed, trace)
	if err := os.WriteFile(filepath.Join(outDir(), name), append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("result file: %w", err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// environment is the fingerprint every result file carries.
type environment struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func fingerprint() environment {
	env := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     kernelRelease(),
	}
	// run.sh exports the checkout's commit; a checkout that is not a git
	// repository has none.
	if c := os.Getenv("PRISM_BENCH_COMMIT"); c != "" {
		env.Commit = c
	}
	return env
}
