// Command perfbench is the repository's benchmark of record. It drives the
// engine the way users reach it — through the TCP server, from one process —
// on one of three workloads, checks every answer against an oracle outside
// the engine, and prints one JSON result line. From the repository root:
//
//	bash perfbench/run.sh --workload report --seed 1 --seconds 8 --trace 0
//
// builds the program into .bench_build and runs it. With --trace 0 the result carries the
// end-to-end metrics; with --trace 1 it carries the per-layer breakdown of
// a traced run. Either way a detailed record (run metadata, the
// workload's own metrics, exact counts, and for traced runs the spans) is
// written under .bench_build/results. See README.md for the workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// outcome is what one workload run produces.
type outcome struct {
	// E2E holds the end-to-end metrics (the contract's --trace 0 set).
	E2E map[string]float64 `json:"e2e"`
	// Layers holds the per-layer metrics (the --trace 1 set).
	Layers map[string]float64 `json:"layers,omitempty"`
	// Workload holds the workload's own metrics under the names the
	// workload notes define (pass_s, table3_s, max_qps, ...).
	Workload map[string]float64 `json:"workload"`
	// Counts are exact, seed-determined quantities the self-test compares.
	Counts map[string]int64 `json:"counts"`
	// Attempted / Failed count the statements issued and those that
	// failed or were refused (a wrong answer aborts the run instead).
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Notes carry run parameters and conditions worth keeping with the
	// numbers (sample counts, host steal), which the comparator skips.
	Notes map[string]any `json:"notes,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{
		E2E:      map[string]float64{},
		Layers:   map[string]float64{},
		Workload: map[string]float64{},
		Counts:   map[string]int64{},
		Notes:    map[string]any{},
	}
}

// makeFinite replaces values JSON cannot carry: +Inf (a latency over failed
// requests, which miss every limit) becomes the largest float, NaN (a
// statistic over no samples) becomes 0.
func (o *outcome) makeFinite() {
	for _, m := range []map[string]float64{o.E2E, o.Layers, o.Workload} {
		for k, v := range m {
			switch {
			case math.IsNaN(v):
				m[k] = 0
			case math.IsInf(v, 0):
				m[k] = math.Copysign(math.MaxFloat64, v)
			}
		}
	}
}

// runConfig is what every workload receives.
type runConfig struct {
	Seed    int64
	Seconds float64
	Trace   bool
	WorkDir string // scratch storage for the run's databases
	OutDir  string // run records and span dumps
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"report": runReport,
	"serve":  runServe,
	"ingest": runIngest,
}

func main() {
	if len(os.Args) == 4 && os.Args[1] == "compare" {
		if err := compare(os.Stdout, specFile, os.Args[2], os.Args[3]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench compare:", err)
			os.Exit(1)
		}
		return
	}
	workload := flag.String("workload", "", "report | serve | ingest")
	seed := flag.Int64("seed", 1, "seed for every generator")
	seconds := flag.Float64("seconds", 10, "measured duration of the run")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer breakdown")
	outDir := flag.String("out", filepath.Join(".bench_build", "results"), "directory for run records")
	selftest := flag.Bool("selftest", false, "check that counts repeat at one seed and differ at another")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want report, serve or ingest)\n", *workload)
		os.Exit(2)
	}
	spec, err := readSpec(specFile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *selftest {
		if err := selfTest(*workload, *seed, *seconds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: selftest:", err)
			os.Exit(1)
		}
		return
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	work, err := os.MkdirTemp(filepath.Dir(*outDir), "run-"+*workload+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: work, OutDir: *outDir}
	started := time.Now()
	clock := startPhase()
	out, runErr := run(cfg)
	_, _, steal := clock.stop()
	os.RemoveAll(work)

	rec := map[string]any{
		"workload": *workload,
		"trace":    cfg.Trace,
		"started":  started.UTC().Format(time.RFC3339),
		"wall_s":   time.Since(started).Seconds(),
		"meta":     runMetadata(cfg),
		// Share of the host's CPU time the hypervisor gave to others while
		// the run was measuring: a noisy neighbour shows here.
		"host_steal_frac": steal,
	}
	if out != nil {
		out.makeFinite()
		rec["outcome"] = out
	}
	if runErr != nil {
		rec["error"] = runErr.Error()
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", *workload, *seed, *trace, started.UnixNano())
	if err := writeJSON(filepath.Join(*outDir, name), rec); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing record:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		fmt.Printf(`{"correct": false, "attempted": 1, "failed": 1, "metrics": {}}` + "\n")
		os.Exit(1)
	}
	printResult(spec, out, cfg.Trace)
}

// specFile declares the metrics the result line carries.
const specFile = "BENCHMARK.json"

// printResult prints the contract's final line: every end-to-end metric of
// the spec untraced, every per-layer metric traced.
func printResult(spec *benchSpec, out *outcome, trace bool) {
	src, list := out.E2E, spec.EndToEnd
	if trace {
		src, list = out.Layers, spec.PerLayer
	}
	metrics := map[string]any{}
	for _, m := range list {
		v, ok := src[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s missing\n", m.Name)
			os.Exit(1)
		}
		metrics[m.Name] = map[string]any{"value": v, "unit": m.Unit}
	}
	attempted := out.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, err := json.Marshal(map[string]any{
		"correct": true, "attempted": attempted, "failed": out.Failed, "metrics": metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// runMetadata records what the numbers depend on besides the code.
func runMetadata(cfg runConfig) map[string]any {
	return map[string]any{
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"cpu_model":      cpuModel(),
		"go_version":     runtime.Version(),
		"source_digest":  sourceDigest("."),
		"seed":           cfg.Seed,
		"seconds":        cfg.Seconds,
		"engine_options": engineOptionsNote,
		"connections":    connections(),
	}
}
