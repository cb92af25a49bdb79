package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/bench"
	"repro/internal/cstore"
	"repro/internal/gen"
	"repro/internal/server"
	"repro/internal/types"
)

// The report workload: analysts' report queries in a closed loop on one
// connection, repeating passes over the seven Table 3 queries on
// lineitem/orders and three heavy queries on the psales fixture.
const (
	reportLineitem = 300_000
	reportPsales   = 400_000
	reportGroups   = 100_000
	reportPdim     = 200_000
	psalesChunks   = 8
	secondsPerPass = 2.5 // a pass's wall time on the reference 2-CPU host
)

// table3Day are the seven queries' date thresholds (of 730 generated days).
var table3Day = []int{700, 300, 0, 650, 300, 600, 500}

func ts(day int) string { return "TIMESTAMP '" + gen.Day(day).String() + "'" }

// reportQueries are the ten statements of one pass; the first seven are the
// C-Store benchmark queries of the paper's Table 3.
func reportQueries() []string {
	d := table3Day
	return []string{
		`SELECT l_shipdate, COUNT(*) FROM lineitem WHERE l_shipdate > ` + ts(d[0]) + ` GROUP BY l_shipdate`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate = ` + ts(d[1]) + ` GROUP BY l_suppkey`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem WHERE l_shipdate > ` + ts(d[2]) + ` GROUP BY l_suppkey`,
		`SELECT o_orderdate, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate > ` + ts(d[3]) + ` GROUP BY o_orderdate`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate = ` + ts(d[4]) + ` GROUP BY l_suppkey`,
		`SELECT l_suppkey, COUNT(*) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate > ` + ts(d[5]) + ` GROUP BY l_suppkey`,
		`SELECT l_returnflag, AVG(l_extendedprice) FROM lineitem JOIN orders ON l_orderkey = o_orderkey WHERE o_orderdate > ` + ts(d[6]) + ` GROUP BY l_returnflag`,
		`SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM psales GROUP BY grp`,
		`SELECT COUNT(*) AS n, SUM(w) AS s FROM psales JOIN pdim ON dk = id`,
		`SELECT k, v FROM psales ORDER BY v`,
	}
}

// reportFixture is the generated data, kept as the oracle's input.
type reportFixture struct {
	lineitem, orders []types.Row
	dk               []int64   // psales.dk by k
	v                []float64 // psales.v by k
	grp              []int64   // psales.grp by k
	rows             int64     // rows loaded into the engine
	setup            storageLog
}

// storageLog records timed calls into db.Load and db.RunTupleMover.
type storageLog struct {
	loadRows    int64
	loadSeconds float64
	moverMs     []float64
	moverRows   int64
	moverMerges int64
}

func (l *storageLog) load(t *tracer, e *engine, table string, rows []types.Row) error {
	d, err := t.timed("storage.load", func() error { return e.db.Load(table, rows, true) })
	l.loadRows += int64(len(rows))
	l.loadSeconds += d.Seconds()
	return err
}

func (l *storageLog) mover(t *tracer, e *engine) error {
	var moved, merged int
	d, err := t.timed("tuplemover.cycle", func() error {
		var err error
		moved, merged, err = e.db.RunTupleMover()
		return err
	})
	l.moverMs = append(l.moverMs, ms(d))
	l.moverRows += int64(moved)
	l.moverMerges += int64(merged)
	return err
}

// genPsales builds the 400k-row fact seeded by seed: k is unique, grp
// cycles through all 100k groups exactly four times (an odd multiplier
// prime to 5 permutes the residues), dk and v are drawn from the seed.
func genPsales(seed int64) (grp, dk []int64, v []float64) {
	rng := rand.New(rand.NewSource(seed*7919 + 17))
	a := int64(1 + 2*rng.Intn(reportGroups/2))
	if a%5 == 0 {
		a += 2
	}
	off := int64(rng.Intn(reportGroups))
	grp, dk, v = make([]int64, reportPsales), make([]int64, reportPsales), make([]float64, reportPsales)
	for k := range grp {
		grp[k] = (int64(k)*a + off) % reportGroups
		dk[k] = int64(rng.Intn(reportPdim))
		v[k] = float64(rng.Intn(9973)) + 0.5
	}
	return grp, dk, v
}

func buildReport(seed int64, t *tracer) func(dir string) (*engine, *reportFixture, error) {
	return func(dir string) (*engine, *reportFixture, error) {
		e, err := openEngine(dir)
		if err != nil {
			return nil, nil, err
		}
		fx := &reportFixture{}
		if err := e.execAll(
			`CREATE TABLE lineitem (l_orderkey INT, l_suppkey INT, l_shipdate TIMESTAMP, l_extendedprice FLOAT, l_returnflag VARCHAR)`,
			`CREATE TABLE orders (o_orderkey INT, o_orderdate TIMESTAMP, o_custkey INT)`,
			`CREATE PROJECTION lineitem_super ON lineitem (l_shipdate, l_suppkey, l_orderkey, l_extendedprice, l_returnflag)
				ORDER BY l_shipdate, l_suppkey SEGMENTED BY HASH(l_orderkey)`,
			`CREATE PROJECTION orders_super ON orders (o_orderkey, o_orderdate, o_custkey) ORDER BY o_orderkey REPLICATED`,
			`CREATE TABLE psales (k INT, grp INT, dk INT, v FLOAT)`,
			`CREATE PROJECTION psales_super ON psales (k, grp, dk, v) ORDER BY k SEGMENTED BY HASH(k)`,
			`CREATE TABLE pdim (id INT, w FLOAT)`,
			`CREATE PROJECTION pdim_super ON pdim (id, w) ORDER BY id SEGMENTED BY HASH(id)`,
		); err != nil {
			return nil, nil, err
		}
		fx.lineitem, fx.orders = gen.LineitemOrders(reportLineitem, seed)
		if err := fx.setup.load(t, e, "lineitem", fx.lineitem); err != nil {
			return nil, nil, err
		}
		if err := fx.setup.load(t, e, "orders", fx.orders); err != nil {
			return nil, nil, err
		}
		fx.grp, fx.dk, fx.v = genPsales(seed)
		chunk := reportPsales / psalesChunks
		for lo := 0; lo < reportPsales; lo += chunk {
			rows := make([]types.Row, chunk)
			for i := range rows {
				k := lo + i
				rows[i] = types.Row{types.NewInt(int64(k)), types.NewInt(fx.grp[k]),
					types.NewInt(fx.dk[k]), types.NewFloat(fx.v[k])}
			}
			if err := fx.setup.load(t, e, "psales", rows); err != nil {
				return nil, nil, err
			}
		}
		dim := make([]types.Row, reportPdim)
		for i := range dim {
			dim[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(float64(i) * 0.25)}
		}
		if err := fx.setup.load(t, e, "pdim", dim); err != nil {
			return nil, nil, err
		}
		if err := fx.setup.mover(t, e); err != nil {
			return nil, nil, err
		}
		for _, tbl := range []string{"lineitem", "orders", "psales", "pdim"} {
			if err := e.execAll(`ANALYZE_STATISTICS('` + tbl + `')`); err != nil {
				return nil, nil, err
			}
		}
		fx.rows = int64(len(fx.lineitem) + len(fx.orders) + reportPsales + reportPdim)
		return e, fx, nil
	}
}

// reportOracle holds every expected answer of a pass.
type reportOracle struct {
	table3 [7][]types.Row // from internal/cstore, sorted by key text
	v      []float64      // psales.v by k
	sumV   []float64      // SUM(v) per group
	sumW   float64        // SUM(w) over the join: 0.25 * SUM(dk)
}

// newReportOracle loads the same generated rows into the C-Store baseline
// (two partial lineitem projections linked by a join index, as
// bench.SetupCStore lays them out) and computes the psales answers in
// closed form from the generator's arrays. It returns the baseline store
// too, for timing.
func newReportOracle(fx *reportFixture) (*reportOracle, *cstore.Store) {
	st := cstore.NewStore()
	st.LoadPartial("lineitem", gen.LineitemSchema(), fx.lineitem, 2, 0, []int{0, 3, 4})
	st.Load("orders", gen.OrdersSchema(), fx.orders, 0)
	o := &reportOracle{v: fx.v, sumV: make([]float64, reportGroups)}
	for q := range o.table3 {
		rows := cstoreRows(st, q)
		sort.Slice(rows, func(i, j int) bool { return rows[i][0].String() < rows[j][0].String() })
		o.table3[q] = rows
	}
	var sumDK int64
	for k := range fx.v {
		o.sumV[fx.grp[k]] += fx.v[k]
		sumDK += fx.dk[k]
	}
	o.sumW = 0.25 * float64(sumDK)
	return o, st
}

// cstoreRows runs Table 3 query q on the baseline with the plans of
// bench.RunCStoreQuery, keeping the result rows instead of their count.
func cstoreRows(st *cstore.Store, q int) []types.Row {
	li, _ := st.Table("lineitem")
	ord, _ := st.Table("orders")
	day := gen.Day(table3Day[q])
	gt := func(col int) func(types.Row) bool {
		return func(r types.Row) bool { return !r[col].Null && r[col].Compare(day) > 0 }
	}
	eq := func(col int) func(types.Row) bool {
		return func(r types.Row) bool { return !r[col].Null && r[col].Compare(day) == 0 }
	}
	switch q {
	case 0:
		return cstore.GroupAgg(cstore.Filter(li.Scan([]int{2}), gt(0)), 0, cstore.CountStar, -1)
	case 1:
		return cstore.GroupAgg(cstore.Filter(li.Scan([]int{2, 1}), eq(0)), 1, cstore.CountStar, -1)
	case 2:
		return cstore.GroupAgg(cstore.Filter(li.Scan([]int{2, 1}), gt(0)), 1, cstore.CountStar, -1)
	case 3:
		it := cstore.Filter(cstore.HashJoin(li.Scan([]int{0}), 0, ord, 0, []int{1}), gt(1))
		return cstore.GroupAgg(it, 1, cstore.CountStar, -1)
	case 4:
		it := cstore.Filter(cstore.HashJoin(li.Scan([]int{0, 1}), 0, ord, 0, []int{1}), eq(2))
		return cstore.GroupAgg(it, 1, cstore.CountStar, -1)
	case 5:
		it := cstore.Filter(cstore.HashJoin(li.Scan([]int{0, 1}), 0, ord, 0, []int{1}), gt(2))
		return cstore.GroupAgg(it, 1, cstore.CountStar, -1)
	default:
		it := cstore.Filter(cstore.HashJoin(li.Scan([]int{0, 4, 3}), 0, ord, 0, []int{1}), gt(3))
		return cstore.GroupAgg(it, 1, cstore.AvgFloat, 2)
	}
}

// check compares query q's result with the oracle.
func (o *reportOracle) check(q int, res *server.Result) error {
	rows := res.Rows
	switch {
	case q < 7:
		want := o.table3[q]
		if len(rows) != len(want) {
			return wrong("Q%d: %d rows, cstore has %d", q+1, len(rows), len(want))
		}
		got := append([][]string(nil), rows...)
		sort.Slice(got, func(i, j int) bool { return got[i][0] < got[j][0] })
		for i, w := range want {
			if got[i][0] != w[0].String() {
				return wrong("Q%d row %d: key %q, cstore %q", q+1, i, got[i][0], w[0].String())
			}
			if w[1].Typ == types.Int64 {
				if parseI(got[i][1]) != w[1].I {
					return wrong("Q%d key %s: %s, cstore %d", q+1, got[i][0], got[i][1], w[1].I)
				}
			} else if g := parseF(got[i][1]); !(math.Abs(g-w[1].F) <= 1e-9*math.Abs(w[1].F)) {
				return wrong("Q%d key %s: %s, cstore %v", q+1, got[i][0], got[i][1], w[1].F)
			}
		}
	case q == 7:
		if len(rows) != reportGroups {
			return wrong("group by: %d groups, want %d", len(rows), reportGroups)
		}
		seen := make([]bool, reportGroups)
		for _, r := range rows {
			g := parseI(r[0])
			if g < 0 || g >= reportGroups || seen[g] {
				return wrong("group by: bad or repeated group %q", r[0])
			}
			seen[g] = true
			if parseI(r[1]) != reportPsales/reportGroups || parseF(r[2]) != o.sumV[g] {
				return wrong("group by: group %d = (%s, %s), want (%d, %v)", g, r[1], r[2], reportPsales/reportGroups, o.sumV[g])
			}
		}
	case q == 8:
		if len(rows) != 1 || parseI(rows[0][0]) != reportPsales || parseF(rows[0][1]) != o.sumW {
			return wrong("join: %v, want [%d %v]", rows, reportPsales, o.sumW)
		}
	default:
		if len(rows) != reportPsales {
			return wrong("order by: %d rows, want %d", len(rows), reportPsales)
		}
		seen := make([]bool, reportPsales)
		prev := math.Inf(-1)
		for _, r := range rows {
			k, v := parseI(r[0]), parseF(r[1])
			if k < 0 || k >= reportPsales || seen[k] || v != o.v[k] || v < prev {
				return wrong("order by: row (%s, %s) out of order, repeated or wrong", r[0], r[1])
			}
			seen[k] = true
			prev = v
		}
	}
	return nil
}

// reportPass is one pass's timings.
type reportPass struct {
	lat    [10]time.Duration
	pass   time.Duration // sum of the ten statement times
	rows   int64
	failed bool // a statement failed: the pass's times read as infinite
}

// runPasses runs n checked passes, counting failed statements. A failed
// statement is not skipped from the timings: its pass reads as infinitely
// slow, so a failure can only make the run look worse.
func runPasses(t *tracer, c *server.Client, o *reportOracle, n int, out *outcome) ([]reportPass, error) {
	qs := reportQueries()
	var passes []reportPass
	for len(passes) < n {
		var p reportPass
		for q, text := range qs {
			out.Attempted++
			res, d, err := t.exec(c, text)
			if err != nil {
				out.Failed++
				p.failed = true
				continue
			}
			if err := o.check(q, res); err != nil {
				return nil, err
			}
			p.lat[q] = d
			p.pass += d
			p.rows += int64(len(res.Rows))
		}
		passes = append(passes, p)
	}
	return passes, nil
}

// passStats returns the median over passes of the pass time and of the
// slowest statement's time (ms), and the Table 3 time: the sum over the
// seven queries of each one's median over passes, so a burst of host noise
// in one short query of one pass does not set it. Given the meter the
// passes ran under, each pass's times are scaled to the reference host
// first. A pass with a failed statement reads as infinitely slow.
func passStats(passes []reportPass, m *meter) (passS, table3S, slowestMs float64) {
	var ps, worst []float64
	var perQuery [7][]float64
	for i, p := range passes {
		if p.failed {
			ps, worst = append(ps, math.Inf(1)), append(worst, math.Inf(1))
			for q := range perQuery {
				perQuery[q] = append(perQuery[q], math.Inf(1))
			}
			continue
		}
		f := 1.0
		if m != nil {
			f = m.factor(i)
		}
		var w time.Duration
		for _, d := range p.lat {
			w = max(w, d)
		}
		ps = append(ps, f*p.pass.Seconds())
		worst = append(worst, f*ms(w))
		for q := range perQuery {
			perQuery[q] = append(perQuery[q], f*p.lat[q].Seconds())
		}
	}
	for _, xs := range perQuery {
		table3S += median(xs)
	}
	return median(ps), table3S, median(worst)
}

func runReport(cfg runConfig) (*outcome, error) {
	out := newOutcome()
	setupTrace := newTracer(cfg.Trace, nil)
	e, fx, setups, err := setupFixture(cfg.WorkDir, buildReport(cfg.Seed, setupTrace))
	if err != nil {
		return nil, err
	}
	defer e.close()
	oracle, store := newReportOracle(fx)
	// Time the baseline and fingerprint the data first, then let the
	// generated rows and the baseline store go: only the expected answers
	// stay live, so the collector's work during the passes is the engine's.
	var cstoreS float64
	var encRows []types.Row
	if cfg.Trace {
		if cstoreS, err = timeCStore(store, oracle); err != nil {
			return nil, err
		}
		encRows = append(encRows, fx.lineitem[:encodingSampleRows]...)
	}
	var sample []string
	for i := 0; i < len(fx.lineitem); i += 997 {
		sample = append(sample, fmt.Sprint(fx.lineitem[i]))
	}
	out.Counts["data_hash"] = dataHash(fx.dk, fx.v, fx.grp, sample)
	out.Counts["mover_cycles"] = int64(len(fx.setup.moverMs))
	out.Counts["mover_rows"] = fx.setup.moverRows
	storage, loaded := fx.setup, fx.rows
	runtime.GC() // fx and store are dead from here on

	cs, err := dialAll(e, 1)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	c := cs[0]

	plain := newTracer(false, e.db)
	if _, err := runPasses(plain, c, oracle, 1, out); err != nil { // warm-up
		return nil, err
	}
	// A fixed number of passes per run, sized so a run measures about
	// cfg.Seconds on a 2-CPU host: the work never depends on the speed.
	n := max(3, int(cfg.Seconds/secondsPerPass+0.5))
	if cfg.Trace {
		n = max(2, n/2)
	}
	before := readCounters()
	gc := startGC()
	clock := startPhase()
	m := newMeter(out)
	var passes []reportPass
	for len(passes) < n {
		err := m.unit(func() error {
			p, err := runPasses(plain, c, oracle, 1, out)
			passes = append(passes, p...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	_, _, steal := clock.stop()
	m.record(out)
	out.Workload["cpu_s_per_pass"] = m.cpuS / float64(len(passes))
	out.Notes["steal_frac"] = steal
	passS, table3S, slowest := passStats(passes, nil)
	scaledPassS, scaledTable3S, _ := passStats(passes, m)
	out.E2E["setup_s"] = median(setups.Scaled)
	out.E2E["throughput"] = float64(len(reportQueries())) / scaledPassS
	out.E2E["latency_ms"] = 1000 * scaledTable3S
	out.E2E["disk_bytes_per_row"] = float64(e.rosBytes()) / float64(loaded)
	out.Workload["pass_s"] = passS
	out.Workload["table3_s"] = table3S
	out.Workload["slowest_statement_ms"] = slowest
	out.Notes["setup_s_each"] = setups
	out.Workload["setup_raw_s"] = median(setups.Raw)
	out.Notes["passes"] = len(passes)
	out.Counts["rows_per_pass"] = passes[0].rows
	out.Counts["ros_bytes"] = e.rosBytes()

	if cfg.Trace {
		traced := newTracer(true, e.db)
		defer traced.finish()
		bytes0 := c.BytesRead()
		mallocs0 := mallocs()
		tpasses, err := runPasses(traced, c, oracle, n, out)
		if err != nil {
			return nil, err
		}
		out.Counts["allocs_per_pass"] = int64((mallocs() - mallocs0) / uint64(len(tpasses)))
		tPassS, _, _ := passStats(tpasses, nil)
		var rows int64
		for _, p := range tpasses {
			rows += p.rows
		}
		in := layerInputs{
			t: traced, delta: readCounters().since(before), gc: gc, client: c,
			bytesPerRow: float64(c.BytesRead()-bytes0) / float64(rows),
			storage:     storage, statements: reportQueries(), catalog: e.db.Catalog(),
			overhead:  tPassS/passS - 1,
			encSchema: gen.LineitemSchema(), encRows: encRows,
		}
		if err := in.compute(out); err != nil {
			return nil, err
		}
		out.Layers["cstore.table3_s"] = cstoreS
		out.Layers["cstore.speedup"] = cstoreS / table3S
		out.Workload["traced_pass_s"] = tPassS
		if err := dumpSpans(cfg, "report", setupTrace, traced); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// timeCStore times bench.RunCStoreQuery over the seven queries (best of
// three per query, every run's cardinality checked against the oracle).
func timeCStore(st *cstore.Store, o *reportOracle) (float64, error) {
	var total float64
	for q := 0; q < 7; q++ {
		best := math.Inf(1)
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			n, err := bench.RunCStoreQuery(st, q)
			d := time.Since(start).Seconds()
			if err != nil {
				return 0, err
			}
			if n != len(o.table3[q]) {
				return 0, fmt.Errorf("cstore Q%d: %d rows, oracle has %d", q+1, n, len(o.table3[q]))
			}
			best = math.Min(best, d)
		}
		total += best
	}
	return total, nil
}
