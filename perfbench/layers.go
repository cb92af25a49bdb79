package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/catalog"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/types"
)

// layerInputs is what a traced run gathered; compute turns it into the
// per-layer metrics shared by every workload. Workloads add the rest
// (cstore, loadgen, mover cycles they ran themselves).
type layerInputs struct {
	t           *tracer
	delta       counters // engine counters over the measured phases
	gc          gcWindow
	client      *server.Client // for PROFILE runs
	bytesPerRow float64
	storage     storageLog
	statements  []string // the workload's statement texts
	catalog     *catalog.Catalog
	overhead    float64 // traced vs untraced, relative
	encSchema   *types.Schema
	encRows     []types.Row
}

func (in layerInputs) compute(out *outcome) error {
	L := out.Layers
	gcFrac, gcPause := in.gc.stop()
	L["runtime.gc_cpu_frac"] = gcFrac
	L["runtime.gc_pause_p99_us"] = gcPause

	self := map[string]float64{}
	var scanRows int64
	var allocs, allocBytes uint64
	for _, q := range in.statements {
		p, err := profile(in.t, in.client, q)
		if err != nil {
			return fmt.Errorf("profile: %w", err)
		}
		for k, v := range p.selfMs {
			self[k] += v
		}
		scanRows += p.scanRows
		allocs += p.allocs
		allocBytes += p.allocBytes
	}
	for _, cat := range []string{"scan", "groupby", "join", "sort", "exchange"} {
		L["exec."+cat+"_ms"] = self[cat] / float64(len(in.statements))
	}
	L["exec.allocs_per_row"] = ratio(int64(allocs), scanRows)
	L["exec.alloc_bytes_per_row"] = ratio(int64(allocBytes), scanRows)
	in.t.finish()

	var wire []float64
	for _, d := range in.t.selfTimes("server.exec") {
		wire = append(wire, float64(d)/1e3)
	}
	L["server.wire_us"] = orZero(median(wire))
	L["server.bytes_per_row"] = in.bytesPerRow
	L["sql.parse_us"] = orZero(median(in.t.phaseUs("parse")))
	L["sql.analyze_us"] = orZero(median(in.t.phaseUs("analyze")))
	L["optimizer.plan_us"] = orZero(median(in.t.phaseUs("plan")))
	queue := in.t.phaseUs("queue")
	L["resmgr.queue_p50_us"] = orZero(median(queue))
	q99, _ := tailQuantile(queue)
	L["resmgr.queue_p99_us"] = orZero(q99)
	L["exec.execute_us"] = orZero(median(in.t.phaseUs("execute")))
	parseUs, analyzeUs, err := directSQL(in.t, in.statements, in.catalog)
	if err != nil {
		return err
	}
	L["sql.parse_direct_us"] = parseUs
	L["sql.analyze_direct_us"] = analyzeUs

	d := in.delta
	L["plancache.hit_ratio"] = ratio(d.planHits, d.planHits+d.planMisses)
	L["plancache.replans"] = float64(d.planReplans)
	L["resmgr.spilled_bytes"] = float64(d.spilledBytes)
	L["storage.block_cache_hit_ratio"] = ratio(d.blockHits, d.blockHits+d.blockMisses)
	L["storage.block_cache_evictions"] = float64(d.evictions)
	L["storage.load_rows_per_s"] = float64(in.storage.loadRows) / in.storage.loadSeconds
	L["tuplemover.cycle_p50_ms"] = median(in.storage.moverMs)
	L["tuplemover.cycle_max_ms"] = quantile(in.storage.moverMs, 1)
	L["tuplemover.cycles"] = float64(len(in.storage.moverMs))
	L["tuplemover.rows_moved"] = float64(in.storage.moverRows)
	L["tuplemover.merges"] = float64(in.storage.moverMerges)

	var lockWait []float64
	for _, l := range in.t.locks {
		lockWait = append(lockWait, float64(l.Wait)/1e3)
	}
	L["txn.lock_wait_us"] = orZero(mean(lockWait))
	L["trace.overhead_frac"] = in.overhead
	L["cstore.table3_s"] = 0
	L["cstore.speedup"] = 0
	L["loadgen.late_p99_ms"] = 0

	perCol, enc, err := encodingStats(in.encSchema, in.encRows)
	if err != nil {
		return err
	}
	for k, v := range enc {
		L[k] = v
	}
	out.Notes["encoding_per_column"] = perCol
	return nil
}

// directSQL times sql.Parse and sql.AnalyzeSelect on the workload's own
// statement texts (median µs per statement over repeated calls).
func directSQL(t *tracer, stmts []string, cat *catalog.Catalog) (parseUs, analyzeUs float64, err error) {
	const reps = 20
	var ps, as []float64
	for _, text := range stmts {
		for i := 0; i < reps; i++ {
			var st sql.Statement
			d, err := t.timed("sql.parse", func() error {
				var err error
				st, err = sql.Parse(text)
				return err
			})
			if err != nil {
				return 0, 0, fmt.Errorf("sql.Parse %q: %w", text, err)
			}
			ps = append(ps, float64(d)/1e3)
			sel, ok := st.(*sql.SelectStmt)
			if !ok {
				continue
			}
			d, err = t.timed("sql.analyze", func() error {
				_, err := sql.AnalyzeSelect(sel, cat)
				return err
			})
			if err != nil {
				return 0, 0, fmt.Errorf("sql.AnalyzeSelect %q: %w", text, err)
			}
			as = append(as, float64(d)/1e3)
		}
	}
	return orZero(median(ps)), orZero(median(as)), nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// orZero maps the NaN of an empty sample to 0: the layer was not exercised.
func orZero(x float64) float64 {
	if x != x {
		return 0
	}
	return x
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// dumpSpans writes each tracer's spans next to the run record.
func dumpSpans(cfg runConfig, workload string, ts ...*tracer) error {
	for i, t := range ts {
		name := fmt.Sprintf("%s-seed%d-spans%d-%d.jsonl", workload, cfg.Seed, i, time.Now().UnixNano())
		if err := t.dump(filepath.Join(cfg.OutDir, name)); err != nil {
			return err
		}
	}
	return nil
}
