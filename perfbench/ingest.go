package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/types"
)

// The ingest workload: continuous load and query. Each round loads a fixed
// number of rows into a fresh table over one writer connection — multi-row
// INSERTs, a DELETE and an UPDATE every few batches, a tuple-mover cycle
// every few thousand rows — while a reader connection runs a fixed
// analytic query set against the same table. A run repeats a fixed number
// of rounds, so neither the table size nor the work depends on the
// engine's speed.
const (
	ingestBase       = 40_000 // rows bulk-loaded before a round streams
	ingestRows       = 24_000 // rows a round inserts
	ingestBatch      = 200    // rows per INSERT
	ingestDMLEvery   = 12     // batches between DELETE/UPDATE pairs
	ingestDMLSpan    = 40     // ids a DELETE or UPDATE covers
	ingestMoverEvery = 4_800  // rows between tuple-mover cycles
	ingestGroups     = 8      // grp = id % 8
	secondsPerRound  = 1.25   // a run makes one round per this many --seconds
)

var ingestTags = []string{"north", "south", "east", "west"} // tag = id % 4

var ingestReads = []string{
	`SELECT grp, COUNT(*), SUM(q) FROM %s GROUP BY grp`,
	`SELECT COUNT(*), SUM(q) FROM %s`,
	`SELECT tag, COUNT(*) FROM %s GROUP BY tag`,
}

// groupState is the table's logical content by group: row count, SUM(q).
type groupState [ingestGroups][2]int64

// ledger is the writer's own record of what the table holds. states[i] is
// the state after the writer's i-th statement; a statement's state is
// appended before it is sent, so a reader that ran between "acked" and
// len(states)-1 must have seen one of those states.
type ledger struct {
	mu     sync.Mutex
	q      map[int64]int64 // live id -> q
	states []groupState
	acked  int // statements whose reply has arrived
}

func (l *ledger) cur() groupState { return l.states[len(l.states)-1] }

// firstVisible is the earliest state a read that starts now may observe.
func (l *ledger) firstVisible() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.acked
}

func (l *ledger) latest() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.states) - 1
}

// apply records one statement: ids set to q (insert/update) or removed.
// It returns a commit function to call once the reply is in.
func (l *ledger) apply(set map[int64]int64, del []int64) func(ok bool) {
	l.mu.Lock()
	st := l.cur()
	for _, id := range del {
		if q, ok := l.q[id]; ok {
			st[id%ingestGroups][0]--
			st[id%ingestGroups][1] -= q
		}
	}
	for id, q := range set {
		old, ok := l.q[id]
		if !ok {
			st[id%ingestGroups][0]++
		}
		st[id%ingestGroups][1] += q - old
	}
	l.states = append(l.states, st)
	idx := len(l.states) - 1
	l.mu.Unlock()
	return func(ok bool) {
		l.mu.Lock()
		defer l.mu.Unlock()
		l.acked++
		if !ok { // the statement rolled back: the table did not change
			l.states[idx] = l.states[idx-1]
			return
		}
		for _, id := range del {
			delete(l.q, id)
		}
		for id, q := range set {
			l.q[id] = q
		}
	}
}

// matches reports whether a reader result equals some state in [lo, hi].
func (l *ledger) matches(kind int, res *server.Result, lo, hi int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	for c := lo; c <= hi; c++ {
		if resultIs(kind, res, l.states[c]) {
			return true
		}
	}
	return false
}

func resultIs(kind int, res *server.Result, st groupState) bool {
	want := map[string][2]int64{}
	switch kind {
	case 0:
		for g, s := range st {
			if s[0] > 0 {
				want[fmt.Sprint(g)] = s
			}
		}
	case 1:
		var n, q int64
		for _, s := range st {
			n, q = n+s[0], q+s[1]
		}
		return len(res.Rows) == 1 && parseI(res.Rows[0][0]) == n && (n == 0 || parseI(res.Rows[0][1]) == q)
	default:
		for g, s := range st {
			if s[0] > 0 {
				w := want[ingestTags[g%len(ingestTags)]]
				w[0] += s[0]
				want[ingestTags[g%len(ingestTags)]] = w
			}
		}
	}
	if len(res.Rows) != len(want) {
		return false
	}
	for _, r := range res.Rows {
		w, ok := want[r[0]]
		if !ok || parseI(r[1]) != w[0] || (kind == 0 && parseI(r[2]) != w[1]) {
			return false
		}
	}
	return true
}

// ingestTable creates and bulk-loads round r's table.
func ingestTable(e *engine, r int, seed int64, t *tracer, log *storageLog) (*ledger, error) {
	name := fmt.Sprintf("ing%d", r)
	if err := e.execAll(
		`CREATE TABLE `+name+` (id INT, grp INT, q INT, tag VARCHAR)`,
		`CREATE PROJECTION `+name+`_super ON `+name+` (id, grp, q, tag) ORDER BY id SEGMENTED BY HASH(id)`,
	); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed*31337 + int64(r)))
	l := &ledger{q: map[int64]int64{}}
	var st groupState
	rows := make([]types.Row, ingestBase)
	for i := range rows {
		id, q := int64(i), int64(rng.Intn(1000))
		rows[i] = types.Row{types.NewInt(id), types.NewInt(id % ingestGroups), types.NewInt(q),
			types.NewString(ingestTags[id%int64(len(ingestTags))])}
		l.q[id] = q
		st[id%ingestGroups][0]++
		st[id%ingestGroups][1] += q
	}
	l.states = []groupState{st}
	if err := log.load(t, e, name, rows); err != nil {
		return nil, err
	}
	if err := e.execAll(`ANALYZE_STATISTICS('` + name + `')`); err != nil {
		return nil, err
	}
	return l, nil
}

type ingestFixture struct {
	ledger *ledger
	setup  storageLog
}

func buildIngest(seed int64, t *tracer) func(dir string) (*engine, *ingestFixture, error) {
	return func(dir string) (*engine, *ingestFixture, error) {
		e, err := openEngine(dir)
		if err != nil {
			return nil, nil, err
		}
		fx := &ingestFixture{}
		fx.ledger, err = ingestTable(e, 0, seed, t, &fx.setup)
		return e, fx, err
	}
}

// roundResult is what one round measured.
type roundResult struct {
	rowsPerS   float64   // rows committed ÷ the round's wall time
	readMs     []float64 // a failed read counts as +Inf
	dmlMs      []float64 // a failed DELETE/UPDATE counts as +Inf
	readRows   int64
	rosBytes   int64
	liveRows   int64
	statements int64
	failed     int64
	movers     int64 // tuple-mover cycles, the last one after the final batch
}

// runRound streams one round into table r and checks the final table
// against the ledger. Mover cycles are billed to log.
func runRound(e *engine, t *tracer, writer, reader *server.Client, r int, seed int64, l *ledger, log *storageLog, out *outcome) (roundResult, error) {
	name := fmt.Sprintf("ing%d", r)
	rng := rand.New(rand.NewSource(seed*7777 + int64(r)))
	var res roundResult
	var (
		stop    = make(chan struct{})
		readErr error
		readWG  sync.WaitGroup
		reads   []float64
		readN   int64
		readBad int64
	)
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		for k := 0; ; k++ {
			select {
			case <-stop:
				return
			default:
			}
			kind := k % len(ingestReads)
			lo := l.firstVisible()
			qres, d, err := t.exec(reader, fmt.Sprintf(ingestReads[kind], name))
			readN++
			if err != nil {
				readBad++
				reads = append(reads, math.Inf(1))
				continue
			}
			if !l.matches(kind, qres, lo, l.latest()) {
				readErr = wrong("%s read %d: %v matches no ledger state in [%d, %d]", name, kind, qres.Rows, lo, l.latest())
				return
			}
			reads = append(reads, ms(d))
			res.readRows += int64(len(qres.Rows))
		}
	}()

	// exec sends one writer statement and returns its latency in ms; a
	// failed one is counted, not fatal, and reads +Inf.
	var committed int64
	exec := func(text string, set map[int64]int64, del []int64, rows int64) float64 {
		commit := l.apply(set, del)
		res.statements++
		_, d, err := t.exec(writer, text)
		commit(err == nil)
		if err != nil {
			res.failed++
			return math.Inf(1)
		}
		committed += rows
		return ms(d)
	}
	start := time.Now()
	next := int64(ingestBase)
	var werr error
	for b := 0; b < ingestRows/ingestBatch && werr == nil; b++ {
		var sb strings.Builder
		sb.WriteString("INSERT INTO " + name + " VALUES ")
		set := map[int64]int64{}
		for i := 0; i < ingestBatch; i++ {
			id, q := next, int64(rng.Intn(1000))
			next++
			set[id] = q
			if i > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, '%s')", id, id%ingestGroups, q, ingestTags[id%int64(len(ingestTags))])
		}
		exec(sb.String(), set, nil, ingestBatch)
		if (b+1)%ingestDMLEvery == 0 {
			a := int64(rng.Intn(int(next - ingestDMLSpan)))
			var del []int64
			for id := a; id < a+ingestDMLSpan; id++ {
				del = append(del, id)
			}
			d := exec(fmt.Sprintf("DELETE FROM %s WHERE id >= %d AND id < %d", name, a, a+ingestDMLSpan), nil, del, 0)
			res.dmlMs = append(res.dmlMs, d)
			u := int64(rng.Intn(int(next - ingestDMLSpan)))
			l.mu.Lock()
			upd := map[int64]int64{}
			for id := u; id < u+ingestDMLSpan; id++ {
				if q, ok := l.q[id]; ok {
					upd[id] = q + 1
				}
			}
			l.mu.Unlock()
			d = exec(fmt.Sprintf("UPDATE %s SET q = q + 1 WHERE id >= %d AND id < %d", name, u, u+ingestDMLSpan), upd, nil, 0)
			res.dmlMs = append(res.dmlMs, d)
		}
		if ((b+1)*ingestBatch)%ingestMoverEvery == 0 {
			werr = log.mover(t, e)
			res.movers++
		}
	}
	res.rowsPerS = float64(committed) / time.Since(start).Seconds()
	close(stop)
	readWG.Wait()
	out.Attempted += res.statements + readN
	out.Failed += res.failed + readBad
	res.readMs = reads
	if werr != nil {
		return res, werr
	}
	if readErr != nil {
		return res, readErr
	}
	if err := checkFinal(writer, name, l); err != nil {
		return res, err
	}
	res.rosBytes = e.rosBytes()
	res.liveRows = int64(len(l.q))
	return res, nil
}

// checkFinal compares the whole table with the writer's ledger.
func checkFinal(c *server.Client, name string, l *ledger) error {
	res, err := c.Exec("SELECT id, grp, q, tag FROM " + name)
	if err != nil {
		return fmt.Errorf("final scan: %w", err)
	}
	if len(res.Rows) != len(l.q) {
		return wrong("%s: %d rows, ledger has %d", name, len(res.Rows), len(l.q))
	}
	for _, r := range res.Rows {
		id := parseI(r[0])
		q, ok := l.q[id]
		if !ok || parseI(r[1]) != id%ingestGroups || parseI(r[2]) != q || r[3] != ingestTags[id%int64(len(ingestTags))] {
			return wrong("%s: row %v, ledger q=%d present=%v", name, r, q, ok)
		}
	}
	return nil
}

// rounds runs n rounds, preparing each round's table outside the timed
// part.
func (w *ingestRun) rounds(t *tracer, n int) ([]roundResult, error) {
	var rs []roundResult
	for len(rs) < n {
		l := w.pending
		if l == nil {
			var err error
			if l, err = ingestTable(w.e, w.r, w.seed, t, &w.log); err != nil {
				return rs, err
			}
		}
		w.pending = nil
		res, err := runRound(w.e, t, w.writer, w.reader, w.r, w.seed, l, &w.log, w.out)
		if err != nil {
			return rs, err
		}
		if err := w.e.execAll(fmt.Sprintf("DROP TABLE ing%d", w.r)); err != nil {
			return rs, err
		}
		w.r++
		rs = append(rs, res)
	}
	return rs, nil
}

type ingestRun struct {
	e              *engine
	writer, reader *server.Client
	seed           int64
	r              int     // next round
	pending        *ledger // round 0's table, built during set-up
	log            storageLog
	out            *outcome
}

// ingestStats summarizes rounds: the median over rounds of rows/s, and
// every reader and DML latency pooled. Given the meter the rounds ran
// under, each round's figures are scaled to the reference host first.
type ingestStats struct {
	rate       float64
	reads, dml []float64
}

func roundStats(rs []roundResult, m *meter) ingestStats {
	var st ingestStats
	var rates []float64
	for i, r := range rs {
		f := 1.0
		if m != nil {
			f = m.factor(i)
		}
		rates = append(rates, r.rowsPerS/f)
		for _, x := range r.readMs {
			st.reads = append(st.reads, f*x)
		}
		for _, x := range r.dmlMs {
			st.dml = append(st.dml, f*x)
		}
	}
	st.rate = median(rates)
	return st
}

func runIngest(cfg runConfig) (*outcome, error) {
	if connections() < 2 {
		return nil, fmt.Errorf("ingest needs a writer and a reader connection, and this host has 1 CPU")
	}
	out := newOutcome()
	setupTrace := newTracer(cfg.Trace, nil)
	e, fx, setups, err := setupFixture(cfg.WorkDir, buildIngest(cfg.Seed, setupTrace))
	if err != nil {
		return nil, err
	}
	defer e.close()
	cs, err := dialAll(e, 2)
	if err != nil {
		return nil, err
	}
	defer closeAll(cs)
	base := make([]int64, ingestBase)
	for id := range base {
		base[id] = fx.ledger.q[int64(id)]
	}
	out.Counts["data_hash"] = dataHash(base)
	w := &ingestRun{e: e, writer: cs[0], reader: cs[1], seed: cfg.Seed, pending: fx.ledger, out: out}
	// A fixed number of rounds per run, set by cfg.Seconds alone: the work
	// never depends on the speed.
	n := max(2, int(cfg.Seconds/secondsPerRound+0.5))
	if cfg.Trace {
		n = max(1, n/2)
	}
	before := readCounters()
	gc := startGC()
	plain := newTracer(false, e.db)
	clock := startPhase()
	m := newMeter(out)
	var rs []roundResult
	for len(rs) < n {
		err := m.unit(func() error {
			r, err := w.rounds(plain, 1)
			rs = append(rs, r...)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	_, _, steal := clock.stop()
	m.record(out)
	out.Workload["cpu_us_per_row"] = 1e6 * m.cpuS / float64(len(rs)*ingestRows)
	out.Notes["steal_frac"] = steal
	st := roundStats(rs, nil)
	sst := roundStats(rs, m)
	p99, q := tailQuantile(st.reads)
	out.E2E["setup_s"] = median(setups.Scaled)
	out.E2E["throughput"] = sst.rate
	out.E2E["latency_ms"] = median(sst.reads)
	out.E2E["disk_bytes_per_row"] = float64(rs[0].rosBytes) / float64(rs[0].liveRows)
	out.Workload["insert_rows_per_s"] = st.rate
	out.Workload["dml_p50_ms"] = median(st.dml)
	out.Workload["read_p90_ms"] = quantile(st.reads, 0.9)
	out.Workload["read_p99_ms"] = p99
	out.Notes["setup_s_each"] = setups
	out.Workload["setup_raw_s"] = median(setups.Raw)
	out.Notes["read_p99_quantile"] = q
	out.Notes["read_samples"] = len(st.reads)
	out.Notes["rounds"] = len(rs)
	out.Counts["ros_bytes_round0"] = rs[0].rosBytes
	out.Counts["live_rows_round0"] = rs[0].liveRows
	out.Counts["statements_round0"] = rs[0].statements
	out.Counts["mover_cycles_round0"] = rs[0].movers

	if cfg.Trace {
		traced := newTracer(true, e.db)
		defer traced.finish()
		w.log = storageLog{}
		bytes0 := w.reader.BytesRead()
		mallocs0 := mallocs()
		trs, err := w.rounds(traced, n)
		if err != nil {
			return nil, err
		}
		// Not a count: the reader's query count per round depends on speed.
		out.Workload["allocs_per_round"] = float64(mallocs()-mallocs0) / float64(len(trs))
		trate := roundStats(trs, nil).rate
		var readRows int64
		for _, r := range trs {
			readRows += r.readRows
		}
		// The profiled and parsed statements run against a live round table.
		l, err := ingestTable(e, w.r, w.seed, traced, &w.log)
		if err != nil {
			return nil, err
		}
		w.pending = l
		name := fmt.Sprintf("ing%d", w.r)
		var stmts []string
		for _, q := range ingestReads {
			stmts = append(stmts, fmt.Sprintf(q, name))
		}
		rows := make([]types.Row, 0, encodingSampleRows)
		ids := make([]int64, 0, len(l.q))
		for id := range l.q {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids[:min(len(ids), cap(rows))] {
			rows = append(rows, types.Row{types.NewInt(id), types.NewInt(id % ingestGroups),
				types.NewInt(l.q[id]), types.NewString(ingestTags[id%int64(len(ingestTags))])})
		}
		in := layerInputs{
			t: traced, delta: readCounters().since(before), gc: gc, client: w.reader,
			bytesPerRow: float64(w.reader.BytesRead()-bytes0) / float64(max(readRows, 1)),
			storage:     w.log, statements: stmts, catalog: e.db.Catalog(),
			overhead:  st.rate/trate - 1,
			encSchema: ingestSchema, encRows: rows,
		}
		if err := in.compute(out); err != nil {
			return nil, err
		}
		out.Workload["traced_insert_rows_per_s"] = trate
		if err := dumpSpans(cfg, "ingest", setupTrace, traced); err != nil {
			return nil, err
		}
	}
	return out, nil
}

var ingestSchema = types.NewSchema(
	types.Column{Name: "id", Typ: types.Int64},
	types.Column{Name: "grp", Typ: types.Int64},
	types.Column{Name: "q", Typ: types.Int64},
	types.Column{Name: "tag", Typ: types.Varchar},
)
