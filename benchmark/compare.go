package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"sort"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// readSpec reads BENCHMARK.json at the repository root, from the root
// (run.sh) or from this directory (go -C benchmark run . or go test).
func readSpec() (benchSpec, error) {
	var spec benchSpec
	err := readJSON("BENCHMARK.json", &spec)
	if errors.Is(err, fs.ErrNotExist) {
		err = readJSON("../BENCHMARK.json", &spec)
	}
	return spec, err
}

// compareFiles prints, for every workload and metric, both sides' median
// and quartiles and a verdict on the end-to-end metrics against their
// bounds. It reports worse when any end-to-end metric got worse by more
// than its bound or any output digest changed: a change meant only to
// speed the simulator up must leave every simulated statistic identical.
func compareFiles(w io.Writer, basePath, headPath string) (worse bool, err error) {
	var base, head resultsFile
	spec, err := readSpec()
	if err != nil {
		return false, err
	}
	if err := readJSON(basePath, &base); err != nil {
		return false, err
	}
	if err := readJSON(headPath, &head); err != nil {
		return false, err
	}
	for _, wl := range spec.Workloads {
		fmt.Fprintf(w, "== %s\n", wl.Name)
		for _, seed := range digestChanges(base.Runs, head.Runs, wl.Name) {
			fmt.Fprintf(w, "!! seed %d: output digest changed\n", seed)
			worse = true
		}
		for _, m := range spec.EndToEnd {
			b, h := values(base.Runs, wl.Name, 0, m.Name), values(head.Runs, wl.Name, 0, m.Name)
			v := verdict(b, h, m)
			if v == "worse" {
				worse = true
			}
			printRow(w, m, b, h, fmt.Sprintf("bound %2.0f%%  %s", 100*m.Bound, v))
		}
		for _, m := range spec.PerLayer {
			printRow(w, m, values(base.Runs, wl.Name, 1, m.Name), values(head.Runs, wl.Name, 1, m.Name), "")
		}
	}
	return worse, nil
}

func values(runs []runRecord, workload string, trace int, metric string) []float64 {
	var v []float64
	for _, r := range runs {
		if r.Workload != workload || r.Trace != trace {
			continue
		}
		if m, ok := r.Metrics[metric]; ok {
			v = append(v, m.Value)
		}
	}
	return v
}

// digestChanges lists the seeds whose runs of workload disagree on the
// output digest between base and head.
func digestChanges(base, head []runRecord, workload string) []int64 {
	digests := func(runs []runRecord) map[int64]map[string]bool {
		d := map[int64]map[string]bool{}
		for _, r := range runs {
			if r.Workload != workload {
				continue
			}
			if d[r.Seed] == nil {
				d[r.Seed] = map[string]bool{}
			}
			d[r.Seed][r.OutputDigest] = true
		}
		return d
	}
	b, h := digests(base), digests(head)
	var changed []int64
	for seed, hd := range h {
		bd, ok := b[seed]
		if !ok {
			continue
		}
		for d := range hd {
			if !bd[d] || len(bd) != 1 || len(hd) != 1 {
				changed = append(changed, seed)
				break
			}
		}
	}
	sort.Slice(changed, func(i, j int) bool { return changed[i] < changed[j] })
	return changed
}

// verdict judges head against base for one end-to-end metric. When
// either side's quartile spread exceeds the bound the runs cannot tell a
// change from noise, so the verdict is unresolved, unless every head run
// reads better than every base run.
func verdict(base, head []float64, m specMetric) string {
	if len(base) == 0 || len(head) == 0 {
		return "missing"
	}
	mb, mh := median(base), median(head)
	gain := (mh - mb) / math.Abs(mb)
	if m.Better == "lower" {
		gain = -gain
	}
	if spread(base) > m.Bound || spread(head) > m.Bound {
		if allBetter(base, head, m.Better) {
			return "better"
		}
		return "unresolved"
	}
	switch {
	case gain < -m.Bound:
		return "worse"
	case gain > m.Bound:
		return "better"
	}
	return "unchanged"
}

// spread is the quartile distance as a share of the median.
func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	if md := median(v); md != 0 {
		return (q3 - q1) / math.Abs(md)
	}
	return 0
}

func allBetter(base, head []float64, better string) bool {
	for _, b := range base {
		for _, h := range head {
			if (better == "lower" && h >= b) || (better != "lower" && h <= b) {
				return false
			}
		}
	}
	return true
}

func printRow(w io.Writer, m specMetric, base, head []float64, tail string) {
	side := func(v []float64) string {
		if len(v) == 0 {
			return fmt.Sprintf("%40s", "-")
		}
		q1, q3 := quartiles(v)
		return fmt.Sprintf("%12.5g [%11.5g %11.5g] n=%-2d", median(v), q1, q3, len(v))
	}
	change := ""
	if len(base) > 0 && len(head) > 0 && median(base) != 0 {
		change = fmt.Sprintf("%+7.1f%%", 100*(median(head)-median(base))/math.Abs(median(base)))
	}
	fmt.Fprintf(w, "  %-32s %-9s base %s  head %s %8s  %s\n", m.Name, m.Unit, side(base), side(head), change, tail)
}
