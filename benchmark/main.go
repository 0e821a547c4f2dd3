// Command benchmark is the repository's end-to-end and per-layer
// benchmark of the simulator. It drives the simulator only through the
// public functions of its layers and measures each layer from outside.
// See README.md in this directory for the workloads and metrics.
//
// Usage, from the repository root:
//
//	sh benchmark/run.sh --workload sim-baseline --seed 0 --seconds 24 --trace 0
//	sh benchmark/run.sh --workload all --seed 0 --seconds 24 --runs 5 --out base.json
//	sh benchmark/run.sh --compare base.json --against head.json
//
// A single-workload run prints every metric by name with its unit, then
// an output_digest line, then one JSON object as its last line:
// {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ones.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() {
	if spec, ok := os.LookupEnv(setupEnv); ok {
		if err := setupProbe(spec); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: set-up probe:", err)
			os.Exit(1)
		}
		return
	}
	var (
		wl       = flag.String("workload", "", "workload to run, or all (each in its own child process)")
		seed     = flag.Int64("seed", 0, "runtime stream of the sim-* workloads (their workload.Profile.Segment)")
		seconds  = flag.Float64("seconds", 24, "measured time per run")
		traced   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics (with all: both)")
		traceOut = flag.String("trace-out", "", "traced run: write its spans as a Chrome trace to this file")
		runs     = flag.Int("runs", 1, "with all: runs per workload")
		out      = flag.String("out", "", "with all: write every run to this JSON file")
		compare  = flag.String("compare", "", "results file of the base commit (needs -against)")
		against  = flag.String("against", "", "results file of the head commit")
	)
	flag.Parse()
	var err error
	switch {
	case *compare != "" || *against != "":
		if *compare == "" || *against == "" {
			err = errors.New("-compare and -against go together")
			break
		}
		var worse bool
		worse, err = compareFiles(os.Stdout, *compare, *against)
		if err == nil && worse {
			os.Exit(1)
		}
	case *wl == "all":
		err = runAll(*seed, *seconds, *traced, *runs, *out)
	case *wl != "":
		err = runOne(*wl, *seed, *seconds, *traced, *traceOut)
	default:
		err = errors.New("need -workload or -compare")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runOne(name string, seed int64, seconds float64, traced int, traceOut string) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	budget := time.Duration(seconds * float64(time.Second))
	var r result
	switch traced {
	case 0:
		r, err = measureEndToEnd(w, seed, budget)
	case 1:
		r, err = measureLayers(w, seed, budget, traceOut)
	default:
		return fmt.Errorf("-trace must be 0 or 1")
	}
	if err != nil {
		return err
	}
	printMetrics(r.Metrics)
	fmt.Printf("output_digest %s\n", r.digest)
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runRecord is one run as -out stores it.
type runRecord struct {
	Workload     string               `json:"workload"`
	Seed         int64                `json:"seed"`
	Trace        int                  `json:"trace"`
	Correct      bool                 `json:"correct"`
	Attempted    int                  `json:"attempted"`
	Failed       int                  `json:"failed"`
	OutputDigest string               `json:"output_digest"`
	Metrics      map[string]metricOut `json:"metrics"`
}

type resultsFile struct {
	Runs []runRecord `json:"runs"`
}

// runAll runs every workload, one child process at a time, and checks
// that all runs of a workload report the same output digest.
func runAll(seed int64, seconds float64, traced, runs int, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	traces := []int{0}
	if traced == 1 {
		traces = append(traces, 1)
	}
	var all resultsFile
	bad := 0
	for _, w := range workloads {
		digest := ""
		for i := 0; i < runs; i++ {
			for _, tr := range traces {
				rec, err := runChild(exe, w.name, seed, seconds, tr)
				if err != nil {
					return err
				}
				all.Runs = append(all.Runs, rec)
				fmt.Printf("== %s seed %d trace %d: correct=%v attempted=%d failed=%d digest=%s\n",
					w.name, seed, tr, rec.Correct, rec.Attempted, rec.Failed, rec.OutputDigest)
				printMetrics(rec.Metrics)
				if !rec.Correct {
					bad++
				}
				if digest == "" {
					digest = rec.OutputDigest
				} else if rec.OutputDigest != digest {
					fmt.Printf("!! %s: output digest %s differs from %s\n", w.name, rec.OutputDigest, digest)
					bad++
				}
			}
		}
	}
	if out != "" {
		data, err := json.MarshalIndent(all, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d incorrect runs or digest mismatches", bad)
	}
	return nil
}

func runChild(exe, name string, seed int64, seconds float64, traced int) (runRecord, error) {
	cmd := exec.Command(exe, "-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(traced))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	if err != nil {
		return runRecord{}, fmt.Errorf("%s: %w", name, err)
	}
	rec := runRecord{Workload: name, Seed: seed, Trace: traced}
	var lastLine string
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		line := sc.Text()
		if d, ok := strings.CutPrefix(line, "output_digest "); ok {
			rec.OutputDigest = d
		}
		if strings.TrimSpace(line) != "" {
			lastLine = line
		}
	}
	var r result
	if err := json.Unmarshal([]byte(lastLine), &r); err != nil {
		return runRecord{}, fmt.Errorf("%s: result line: %w", name, err)
	}
	rec.Correct, rec.Attempted, rec.Failed, rec.Metrics = r.Correct, r.Attempted, r.Failed, r.Metrics
	return rec, nil
}

func printMetrics(ms map[string]metricOut) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-32s %16.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}
