package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// allocTolerance is how far two runs' allocation counts may differ.
const allocTolerance = 0.02

// selfTest runs the workload three times, each in a fresh process and
// traced: twice at seed and once at seed+1. The two same-seed runs must
// report identical counts (allocation counts within allocTolerance); the
// other seed must generate different data.
func selfTest(workload string, seed int64, seconds float64) error {
	dir, err := os.MkdirTemp(".bench_build", "selftest-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	var counts []map[string]int64
	for i, s := range []int64{seed, seed, seed + 1} {
		out := filepath.Join(dir, fmt.Sprint(i))
		cmd := exec.Command(os.Args[0], "--workload", workload, "--seed", fmt.Sprint(s),
			"--seconds", fmt.Sprint(seconds), "--trace", "1", "--out", out)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			return fmt.Errorf("run %d (seed %d): %w", i, s, err)
		}
		recs, err := filepath.Glob(filepath.Join(out, "*-trace1-*.json"))
		if err != nil || len(recs) != 1 {
			return fmt.Errorf("run %d: want one record, found %d", i, len(recs))
		}
		raw, err := os.ReadFile(recs[0])
		if err != nil {
			return err
		}
		var rec struct{ Outcome outcome }
		if err := json.Unmarshal(raw, &rec); err != nil {
			return err
		}
		counts = append(counts, rec.Outcome.Counts)
	}
	for k, a := range counts[0] {
		b, ok := counts[1][k]
		switch {
		case !ok:
			return fmt.Errorf("%s missing from the second run", k)
		case strings.HasPrefix(k, "allocs_"):
			if math.Abs(float64(a-b)) > allocTolerance*float64(a) {
				return fmt.Errorf("%s: %d vs %d, beyond %.0f%%", k, a, b, 100*allocTolerance)
			}
		case a != b:
			return fmt.Errorf("%s: %d vs %d at one seed", k, a, b)
		}
		fmt.Printf("%-24s %14d %14d  seed %d: %d\n", k, a, b, seed+1, counts[2][k])
	}
	if counts[0]["data_hash"] == counts[2]["data_hash"] {
		return fmt.Errorf("seeds %d and %d generated the same data", seed, seed+1)
	}
	fmt.Println("selftest passed")
	return nil
}
