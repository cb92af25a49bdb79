package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// compare prints, for every workload and metric found in two sets of run
// records, each side's median and quartiles, the share of run pairs
// the second side wins, and a verdict under the benchmark's rule:
//
//	regression  B's median is worse than A's by more than the metric's bound
//	gain        B wins at least 9 of 10 pairs and the medians differ by more
//	            than A's quartile spread
//	unresolved  A's own quartile spread is wider than the bound
//	same        otherwise
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh compare <records-dir-A> <records-dir-B>
//
// Workload metrics without a bound in BENCHMARK.json (pass_s, table3_s,
// max_qps, ...) are compared at a 10% bound.
func compare(w io.Writer, specPath, dirA, dirB string) error {
	bs, err := readSpec(specPath)
	if err != nil {
		return err
	}
	spec := map[string]specMetric{}
	for _, m := range bs.EndToEnd {
		spec[m.Name] = m
	}
	a, err := readRecords(dirA)
	if err != nil {
		return err
	}
	b, err := readRecords(dirB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %-20s %4s %12s %25s %12s %25s %6s  %s\n",
		"workload", "metric", "n", "median A", "q1..q3 A", "median B", "q1..q3 B", "B wins", "verdict")
	var workloads []string
	for wl := range a {
		if _, ok := b[wl]; ok {
			workloads = append(workloads, wl)
		}
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		for _, m := range metricNames(a[wl]) {
			rule, ok := spec[m]
			if !ok {
				rule = specMetric{Better: direction(m), Bound: 0.10}
			}
			va, vb := a[wl].values(m), b[wl].values(m)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			qa, qb := quartiles(va), quartiles(vb)
			wins := pairWins(a[wl], b[wl], m, rule.Better == "lower")
			fmt.Fprintf(w, "%-8s %-20s %4d %12.4g %12.4g..%-12.4g %12.4g %12.4g..%-12.4g %5.0f%%  %s\n",
				wl, m, min(len(va), len(vb)), ma, qa[0], qa[2], mb, qb[0], qb[2], 100*wins,
				verdict(rule, ma, mb, qa, wins))
		}
	}
	return nil
}

// specMetric is one metric entry of BENCHMARK.json.
type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

type benchSpec struct {
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

// direction says whether a workload metric is better "higher" (rates and
// ratios: names ending in _per_s or _ratio, max_qps, throughput) or
// "lower" (times, sizes, CPU per unit).
func direction(name string) string {
	if strings.HasSuffix(name, "_per_s") || strings.HasSuffix(name, "_ratio") || name == "max_qps" || name == "throughput" {
		return "higher"
	}
	return "lower"
}

func verdict(r specMetric, ma, mb float64, qa [3]float64, wins float64) string {
	worse := (mb - ma) / ma
	if r.Better == "higher" {
		worse = (ma - mb) / ma
	}
	switch {
	case worse > r.Bound:
		return fmt.Sprintf("regression (%.1f%% worse, bound %.0f%%)", 100*worse, 100*r.Bound)
	case wins >= 0.9 && math.Abs(mb-ma) > qa[2]-qa[0]:
		return fmt.Sprintf("gain (%.1f%%)", -100*worse)
	case (qa[2]-qa[0])/math.Abs(ma) > r.Bound:
		return "unresolved (A spreads wider than the bound)"
	}
	return "same"
}

// readSpec reads the metric lists of BENCHMARK.json, the one place metric
// names and units are declared.
func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &spec, nil
}

// runKey pairs runs across two sets: the seed and, for runs repeated at one
// seed, the order in which they were made.
type runKey struct {
	seed int64
	rep  int
}

// runSet is one workload's untraced records: metric -> run -> value.
type runSet map[string]map[runKey]float64

func (s runSet) values(m string) []float64 {
	var out []float64
	for _, v := range s[m] {
		out = append(out, v)
	}
	return out
}

func metricNames(s runSet) []string {
	var out []string
	for m := range s {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// readRecords loads every untraced run record in dir, by workload.
func readRecords(dir string) (map[string]runSet, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*-trace0-*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]runSet{}
	// Record names end in the start time in nanoseconds, so the glob's
	// sorted order is the order the runs were made in.
	reps := map[string]map[int64]int{}
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rec struct {
			Workload string `json:"workload"`
			Meta     struct {
				Seed int64 `json:"seed"`
			} `json:"meta"`
			Outcome *outcome `json:"outcome"`
		}
		if err := json.Unmarshal(raw, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if rec.Outcome == nil {
			continue
		}
		set := out[rec.Workload]
		if set == nil {
			set = runSet{}
			out[rec.Workload] = set
			reps[rec.Workload] = map[int64]int{}
		}
		key := runKey{rec.Meta.Seed, reps[rec.Workload][rec.Meta.Seed]}
		reps[rec.Workload][rec.Meta.Seed]++
		for _, src := range []map[string]float64{rec.Outcome.E2E, rec.Outcome.Workload} {
			for m, v := range src {
				if set[m] == nil {
					set[m] = map[runKey]float64{}
				}
				set[m][key] = v
			}
		}
	}
	return out, nil
}

// pairWins is the share of runs made on both sides (same seed, same repeat)
// where B is better; ties count for neither.
func pairWins(a, b runSet, m string, lower bool) float64 {
	var pairs, wins int
	for key, va := range a[m] {
		vb, ok := b[m][key]
		if !ok {
			continue
		}
		pairs++
		if (lower && vb < va) || (!lower && vb > va) {
			wins++
		}
	}
	if pairs == 0 {
		return 0
	}
	return float64(wins) / float64(pairs)
}

// quartiles matches Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method).
func quartiles(xs []float64) [3]float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	var out [3]float64
	if n == 1 {
		return [3]float64{s[0], s[0], s[0]}
	}
	for i := 1; i <= 3; i++ {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out
}
