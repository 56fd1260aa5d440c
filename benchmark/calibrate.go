package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

// quartiles returns the first and third quartiles the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which is
// what the benchmark's acceptance check uses.
func quartiles(values []float64) (q1, q3 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n < 2 {
		return d[0], d[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// runChild runs one end-to-end pass in a fresh process, as the driver does,
// and parses the result line.
func runChild(exe string, s spec, seed int64, seconds int) (result, error) {
	cmd := exec.Command(exe, "--workload", s.name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return result{}, fmt.Errorf("%s seed %d: %w", s.name, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return result{}, fmt.Errorf("%s seed %d: result line: %w", s.name, seed, err)
	}
	if !res.Correct {
		return result{}, fmt.Errorf("%s seed %d: %d of %d ops failed", s.name, seed, res.Failed, res.Attempted)
	}
	return res, nil
}

// runCalibration runs two interleaved sets of n passes of every workload,
// each pass a fresh process with its own seed, and prints, per workload and
// end-to-end metric, each set's median and quartile spread and how much
// worse the second median is than the first. It fails if a spread or a gap
// exceeds the metric's bound.
func runCalibration(n, seconds int) error {
	if n < 5 {
		return fmt.Errorf("-calibrate needs at least 5 passes per set, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	env := fingerprint()
	fmt.Printf("# Calibration\n\n")
	fmt.Printf("Two interleaved sets of %d fresh-process passes per workload, %d s timed phase, one seed per pass.\n", n, seconds)
	fmt.Printf("Spread is (Q3 − Q1) / median with Python's `statistics.quantiles(n=4)`; gap is how much worse set B's median is than set A's (negative: better).\n\n")
	fmt.Printf("- date: %s\n- commit: %s\n- go: %s, GOMAXPROCS %d, nproc %d\n- cpu: %s\n- kernel: %s\n\n",
		time.Now().UTC().Format("2006-01-02"), env.Commit, env.GoVersion, env.GOMAXPROCS, env.NumCPU, env.CPUModel, env.Kernel)

	var problems []string
	for _, s := range specs {
		sets := [2]map[string][]float64{{}, {}}
		start := time.Now()
		for i := 0; i < n; i++ {
			for set := range sets {
				res, err := runChild(exe, s, int64(1000+2*i+set), seconds)
				if err != nil {
					return err
				}
				for name, v := range res.Metrics {
					sets[set][name] = append(sets[set][name], v.Value)
				}
			}
		}
		fmt.Printf("## %s\n\n%.1f s per pass.\n\n", s.name, time.Since(start).Seconds()/float64(2*n))
		fmt.Println("| metric | unit | bound | median A | spread A | median B | spread B | gap B vs A |")
		fmt.Println("|---|---|---|---|---|---|---|---|")
		for _, d := range endToEnd {
			var med, spread [2]float64
			for set := range sets {
				v := sets[set][d.name]
				q1, q3 := quartiles(v)
				med[set] = median(v)
				spread[set] = (q3 - q1) / med[set]
			}
			gap := (med[1] - med[0]) / med[0]
			if d.better == "higher" {
				gap = -gap
			}
			fmt.Printf("| %s | %s | %.0f%% | %.6g | %.2f%% | %.6g | %.2f%% | %+.2f%% |\n",
				d.name, d.unit, 100*d.bound, med[0], 100*spread[0], med[1], 100*spread[1], 100*gap)
			for set, sp := range spread {
				if d.name != "setup_s" && sp > d.bound {
					problems = append(problems, fmt.Sprintf("%s %s: set %c spread %.2f%% exceeds the %.0f%% bound",
						s.name, d.name, 'A'+set, 100*sp, 100*d.bound))
				}
			}
			if gap > d.bound {
				problems = append(problems, fmt.Sprintf("%s %s: set B's median is %.2f%% worse than set A's, over the %.0f%% bound",
					s.name, d.name, 100*gap, 100*d.bound))
			}
		}
		fmt.Println()
	}
	if len(problems) > 0 {
		fmt.Println("## Over the bounds")
		fmt.Println()
		for _, p := range problems {
			fmt.Println("- " + p)
		}
		return fmt.Errorf("calibration: %d metric(s) over their bounds", len(problems))
	}
	fmt.Println("Every spread and every gap is within its bound.")
	return nil
}
