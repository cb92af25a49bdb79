// Ternary Logic Partitioning (TLP) metamorphic oracle (Rigger & Su, OSDI
// 2020), composed with the parallel-vs-serial differential oracle: for a
// generated predicate p over table t, SQL's three-valued logic guarantees
//
//	SELECT cols FROM t
//	  ≡(multiset)
//	SELECT cols FROM t WHERE p
//	  ∪ SELECT cols FROM t WHERE NOT (p)
//	  ∪ SELECT cols FROM t WHERE (p) IS NULL
//
// because every row makes p evaluate to exactly one of TRUE / FALSE / NULL.
// The same identity is checked over the shapes the executor's hash tables
// and sort serve: GROUP BY with keys (per-group COUNT/SUM add up across the
// partitions), two-table INNER and LEFT OUTER equi-joins (rowset), and
// ORDER BY (each result sorted, and equal to the unsorted query as a
// multiset). No expected output is needed — the database is its own oracle — so the
// check exercises predicate evaluation, NULL handling, scan pruning and
// delete-vector filtering far beyond what hand-written goldens cover.
// Every partition query additionally runs on a serial AND a parallel
// (Parallelism=4, ForceParallel) engine and must agree as a multiset, so
// each generated query is simultaneously a TLP and a differential probe.
package sqltest

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/types"
)

// TLPConfig configures one metamorphic run.
type TLPConfig struct {
	// Seed fully determines the generated query stream (given the same
	// Setup); failures print it so runs are reproducible.
	Seed int64
	// Predicates is how many random predicates to generate. Each predicate
	// drives one rowset TLP check, an alternating aggregate or DISTINCT
	// form, and one of the GROUP BY / join / ORDER BY forms in rotation
	// (about 13 executed queries, each on both engines).
	Predicates int
	// Setup statements are replayed into both engines before generation
	// (typically the `statement` records of an .slt file). Statements on
	// which both engines fail identically are skipped, so error-exercising
	// setup lines are harmless.
	Setup []string
}

// TLPStats reports what a run executed.
type TLPStats struct {
	Predicates int // predicates generated
	Queries    int // generated SELECTs executed (each ran on both engines)
}

// ParallelOptions is the engine configuration the differential side runs
// under: intra-node parallelism with the planner's cardinality gate dropped
// so tiny test tables still take parallel plans.
func ParallelOptions(t *testing.T) core.Options {
	opts := DefaultOptions(t)
	opts.Parallelism = 4
	opts.ForceParallel = true
	return opts
}

// RunTLP replays cfg.Setup into a serial and a parallel engine, profiles
// the resulting tables, and checks cfg.Predicates generated predicates
// under the TLP identities. Violations are reported with the seed, the
// partition SQL, and a reproduction command.
func RunTLP(t *testing.T, cfg TLPConfig) TLPStats {
	t.Helper()
	serial, err := core.Open(DefaultOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := core.Open(ParallelOptions(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, stmt := range cfg.Setup {
		_, errA := serial.Execute(stmt)
		_, errB := parallel.Execute(stmt)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("TLP setup diverged: serial err=%v, parallel err=%v\n  %s", errA, errB, stmt)
		}
	}
	profiles := ProfileTables(t, serial)
	if len(profiles) == 0 {
		t.Skip("no non-empty tables to generate over")
	}
	run := &tlpRun{t: t, serial: serial, parallel: parallel, seed: cfg.Seed}
	g := NewQGen(cfg.Seed, profiles)
	for i := 0; i < cfg.Predicates; i++ {
		tp, pred := g.NextPredicate()
		run.checkRowset(i, tp, pred)
		if i%2 == 0 {
			run.checkAggregate(i, tp, pred)
		} else {
			run.checkDistinct(i, tp, pred, g)
		}
		switch i % 3 {
		case 0:
			run.checkGroupBy(i, tp, pred, g)
		case 1:
			run.checkJoin(i, g)
		default:
			run.checkOrderBy(i, tp, pred, g)
		}
	}
	return TLPStats{Predicates: cfg.Predicates, Queries: run.queries}
}

// ProfileTables samples every non-empty catalog table through db, building
// the generator's column profiles (up to 8 distinct non-NULL literals per
// column, drawn from the table's actual data).
func ProfileTables(t *testing.T, db *core.Database) []TableProfile {
	t.Helper()
	var out []TableProfile
	for _, tab := range db.Catalog().Tables() {
		cols := tab.Schema.Cols
		names := make([]string, len(cols))
		for i, c := range cols {
			names[i] = c.Name
		}
		res, err := db.Execute(fmt.Sprintf("SELECT %s FROM %s", strings.Join(names, ", "), tab.Name))
		if err != nil || len(res.Rows) == 0 {
			continue
		}
		tp := TableProfile{Name: tab.Name, Rows: len(res.Rows)}
		for i, c := range cols {
			cp := ColProfile{Name: c.Name, Typ: c.Typ}
			seen := map[string]bool{}
			for _, row := range res.Rows {
				if len(cp.Samples) >= 8 {
					break
				}
				lit, ok := SampleLiteral(row[i])
				if ok && !seen[lit] {
					seen[lit] = true
					cp.Samples = append(cp.Samples, lit)
				}
			}
			tp.Cols = append(tp.Cols, cp)
		}
		out = append(out, tp)
	}
	return out
}

// tlpRun holds the two engines and failure context for one RunTLP call.
type tlpRun struct {
	t        *testing.T
	serial   *core.Database
	parallel *core.Database
	seed     int64
	queries  int
}

func (r *tlpRun) repro() string {
	return fmt.Sprintf("reproduce: go test ./internal/sqltest -run TestTLPMetamorphic -tlp.seed=%d", r.seed)
}

// rows executes one generated query on both engines, requires both to
// succeed with multiset-identical results, and returns the sorted rendered
// rows. A generated query erroring at all is itself a finding.
func (r *tlpRun) rows(idx int, sql string) ([]string, bool) {
	return r.query(idx, sql, false)
}

// query is rows, optionally folding the first cell's zeros: foldKey is for
// queries whose first column is a picked representative — a DISTINCT value
// or a GROUP BY key (see foldNegZero).
func (r *tlpRun) query(idx int, sql string, foldKey bool) ([]string, bool) {
	r.t.Helper()
	r.queries++
	resA, errA := r.serial.Execute(sql)
	resB, errB := r.parallel.Execute(sql)
	if errA != nil || errB != nil {
		r.t.Errorf("TLP query error (seed=%d, predicate #%d): serial=%v, parallel=%v\n  %s\n%s",
			r.seed, idx, errA, errB, sql, r.repro())
		return nil, false
	}
	a, b := renderRows(resA), renderRows(resB)
	if foldKey {
		foldNegZero(a)
		foldNegZero(b)
	}
	sort.Strings(a)
	sort.Strings(b)
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		r.t.Errorf("parallel-vs-serial divergence (seed=%d, predicate #%d):\n  %s\nserial:\n  %s\nparallel:\n  %s\n%s",
			r.seed, idx, sql, strings.Join(a, "\n  "), strings.Join(b, "\n  "), r.repro())
		return nil, false
	}
	return a, true
}

// foldNegZero renders a first cell of -0 as 0. SQL equality does not
// tell the two zeros apart, so the one a DISTINCT value or GROUP BY key
// shows depends on the row that arrived first, and may differ between a
// query and its partitions or between the engines. Every other cell comes
// straight from a stored row or an aggregate and is compared exactly.
func foldNegZero(rows []string) {
	for i, row := range rows {
		if row == "-0" || strings.HasPrefix(row, "-0|") {
			rows[i] = row[1:]
		}
	}
}

// partitionSQL renders the unpartitioned query and its three TLP partitions.
func partitionSQL(base, pred string) (all, p, notP, nullP string) {
	return base,
		base + " WHERE " + pred,
		base + " WHERE NOT (" + pred + ")",
		base + " WHERE (" + pred + ") IS NULL"
}

func (r *tlpRun) checkRowset(idx int, tp TableProfile, pred string) {
	r.t.Helper()
	names := make([]string, len(tp.Cols))
	for i, c := range tp.Cols {
		names[i] = c.Name
	}
	base := fmt.Sprintf("SELECT %s FROM %s", strings.Join(names, ", "), tp.Name)
	all, p, notP, nullP := partitionSQL(base, pred)
	rowsAll, ok1 := r.rows(idx, all)
	rowsP, ok2 := r.rows(idx, p)
	rowsN, ok3 := r.rows(idx, notP)
	rowsNull, ok4 := r.rows(idx, nullP)
	if !(ok1 && ok2 && ok3 && ok4) {
		return
	}
	if err := CheckTLP(rowsAll, rowsP, rowsN, rowsNull); err != nil {
		r.t.Errorf("TLP rowset violation (seed=%d, predicate #%d): %v\n  %s\n  %s\n  %s\n  %s\n%s",
			r.seed, idx, err, all, p, notP, nullP, r.repro())
	}
}

func (r *tlpRun) checkAggregate(idx int, tp TableProfile, pred string) {
	r.t.Helper()
	// COUNT(*) always; SUM over the first integer column when there is one.
	agg := "COUNT(*)"
	sumCol := ""
	for _, c := range tp.Cols {
		if c.Typ == types.Int64 {
			sumCol = c.Name
			break
		}
	}
	if sumCol != "" {
		agg += ", SUM(" + sumCol + ")"
	}
	base := fmt.Sprintf("SELECT %s FROM %s", agg, tp.Name)
	all, p, notP, nullP := partitionSQL(base, pred)
	rowsAll, ok1 := r.rows(idx, all)
	rowsP, ok2 := r.rows(idx, p)
	rowsN, ok3 := r.rows(idx, notP)
	rowsNull, ok4 := r.rows(idx, nullP)
	if !(ok1 && ok2 && ok3 && ok4) {
		return
	}
	if err := CheckTLPAggregate(rowsAll, rowsP, rowsN, rowsNull); err != nil {
		r.t.Errorf("TLP aggregate violation (seed=%d, predicate #%d): %v\n  %s\n  %s\n  %s\n  %s\n%s",
			r.seed, idx, err, all, p, notP, nullP, r.repro())
	}
}

func (r *tlpRun) checkDistinct(idx int, tp TableProfile, pred string, g *QGen) {
	r.t.Helper()
	c := tp.Cols[g.rng.Intn(len(tp.Cols))]
	base := fmt.Sprintf("SELECT DISTINCT %s FROM %s", c.Name, tp.Name)
	all, p, notP, nullP := partitionSQL(base, pred)
	rowsAll, ok1 := r.query(idx, all, true)
	rowsP, ok2 := r.query(idx, p, true)
	rowsN, ok3 := r.query(idx, notP, true)
	rowsNull, ok4 := r.query(idx, nullP, true)
	if !(ok1 && ok2 && ok3 && ok4) {
		return
	}
	if err := CheckTLPDistinct(rowsAll, rowsP, rowsN, rowsNull); err != nil {
		r.t.Errorf("TLP DISTINCT violation (seed=%d, predicate #%d): %v\n  %s\n  %s\n  %s\n  %s\n%s",
			r.seed, idx, err, all, p, notP, nullP, r.repro())
	}
}

// maxJoinRows bounds a generated join's input-size product, keeping
// fan-out self-joins on low-cardinality keys small.
const maxJoinRows = 40000

// partitions runs the unpartitioned query and its three TLP partitions on
// both engines, folding the first cell's zeros when foldKey is set (see
// foldNegZero); ok is false when any of them failed (already reported).
func (r *tlpRun) partitions(idx int, base, pred, suffix string, foldKey bool) (all []string, parts [3][]string, sqls [4]string, ok bool) {
	r.t.Helper()
	a, p, n, nl := partitionSQL(base, pred)
	sqls = [4]string{a + suffix, p + suffix, n + suffix, nl + suffix}
	ok = true
	for i, sql := range sqls {
		rows, good := r.query(idx, sql, foldKey)
		ok = ok && good
		if i == 0 {
			all = rows
		} else {
			parts[i-1] = rows
		}
	}
	return all, parts, sqls, ok
}

// checkGroupBy: GROUP BY over a random key column. Every group of the
// unpartitioned query must appear in some partition, and its COUNT(*) and
// integer SUM must equal the per-group sums over the partitions.
func (r *tlpRun) checkGroupBy(idx int, tp TableProfile, pred string, g *QGen) {
	r.t.Helper()
	key := g.GroupKey(tp)
	aggs := "COUNT(*)"
	for _, c := range tp.Cols {
		if c.Typ == types.Int64 && c.Name != key.Name {
			aggs += ", SUM(" + c.Name + ")"
			break
		}
	}
	base := fmt.Sprintf("SELECT %s, %s FROM %s", key.Name, aggs, tp.Name)
	all, parts, sqls, ok := r.partitions(idx, base, pred, " GROUP BY "+key.Name, true)
	if !ok {
		return
	}
	if err := CheckTLPGroupBy(strings.Count(aggs, ",")+1, all, parts[:]...); err != nil {
		r.t.Errorf("TLP GROUP BY violation (seed=%d, predicate #%d): %v\n  %s\n%s",
			r.seed, idx, err, strings.Join(sqls[:], "\n  "), r.repro())
	}
}

// checkJoin: a generated INNER or LEFT OUTER equi-join between two tables
// (possibly one table twice) under the rowset TLP identity, with the
// predicate drawn over both sides' columns.
func (r *tlpRun) checkJoin(idx int, g *QGen) {
	r.t.Helper()
	j, ok := g.NextJoin(maxJoinRows)
	if !ok {
		return
	}
	tp := j.Profile()
	names := make([]string, len(tp.Cols))
	for i, c := range tp.Cols {
		names[i] = c.Name
	}
	base := fmt.Sprintf("SELECT %s FROM %s", strings.Join(names, ", "), tp.Name)
	all, parts, sqls, ok := r.partitions(idx, base, g.Predicate(tp), "", false)
	if !ok {
		return
	}
	if err := CheckTLP(all, parts[:]...); err != nil {
		r.t.Errorf("TLP join violation (seed=%d, predicate #%d): %v\n  %s\n%s",
			r.seed, idx, err, strings.Join(sqls[:], "\n  "), r.repro())
	}
}

// checkOrderBy: every partition query carries a random ORDER BY. Each
// engine's output must be sorted on the keys, the partitions must satisfy
// the rowset identity, and the sorted unpartitioned result must equal the
// unsorted query as a multiset.
func (r *tlpRun) checkOrderBy(idx int, tp TableProfile, pred string, g *QGen) {
	r.t.Helper()
	names := make([]string, len(tp.Cols))
	for i, c := range tp.Cols {
		names[i] = c.Name
	}
	keys := g.OrderBy(tp)
	items := make([]string, len(keys))
	for i, k := range keys {
		items[i] = names[k.Col]
		if k.Desc {
			items[i] += " DESC"
		}
	}
	base := fmt.Sprintf("SELECT %s FROM %s", strings.Join(names, ", "), tp.Name)
	suffix := " ORDER BY " + strings.Join(items, ", ")
	unsorted, ok := r.rows(idx, base)
	if !ok {
		return
	}
	all, p, notP, nullP := partitionSQL(base, pred)
	for _, sql := range []string{all + suffix, p + suffix, notP + suffix, nullP + suffix} {
		for _, db := range []*core.Database{r.serial, r.parallel} {
			res, err := db.Execute(sql)
			if err != nil {
				continue // reported by r.rows below
			}
			if err := CheckSorted(res.Rows, keys); err != nil {
				r.t.Errorf("ORDER BY violation (seed=%d, predicate #%d): %v\n  %s\n%s",
					r.seed, idx, err, sql, r.repro())
				return
			}
		}
	}
	rowsAll, parts, sqls, ok := r.partitions(idx, base, pred, suffix, false)
	if !ok {
		return
	}
	if err := CheckTLP(rowsAll, parts[:]...); err != nil {
		r.t.Errorf("TLP ORDER BY violation (seed=%d, predicate #%d): %v\n  %s\n%s",
			r.seed, idx, err, strings.Join(sqls[:], "\n  "), r.repro())
	}
	if err := CheckTLP(unsorted, rowsAll); err != nil {
		r.t.Errorf("ORDER BY changed the result multiset (seed=%d, predicate #%d): %v\n  %s\n  %s\n%s",
			r.seed, idx, err, base, sqls[0], r.repro())
	}
}

// CheckSorted asserts rows are ordered by the sort keys: ascending puts
// NULLs first, descending reverses the whole order (NULLs last).
func CheckSorted(rows []types.Row, keys []SortKey) error {
	for i := 1; i < len(rows); i++ {
		for _, k := range keys {
			c := rows[i-1][k.Col].Compare(rows[i][k.Col])
			if k.Desc {
				c = -c
			}
			if c < 0 {
				break
			}
			if c > 0 {
				return fmt.Errorf("rows %d and %d out of order: %v then %v", i-1, i, rows[i-1], rows[i])
			}
		}
	}
	return nil
}

// CheckTLPGroupBy asserts the GROUP BY TLP identity over rendered rows
// whose last nAggs cells are additive aggregates (COUNT, integer SUM) and
// whose leading cells are the group key: the unpartitioned query's groups
// must be exactly the union of the partitions' groups, each aggregate equal
// to its per-group sum over the partitions (a NULL SUM counts as 0).
func CheckTLPGroupBy(nAggs int, all []string, partitions ...[]string) error {
	split := func(rows []string) (map[string][]float64, error) {
		out := map[string][]float64{}
		for _, row := range rows {
			cells := strings.Split(row, "|")
			if len(cells) <= nAggs {
				return nil, fmt.Errorf("row %q has no group key", row)
			}
			key := strings.Join(cells[:len(cells)-nAggs], "|")
			if _, dup := out[key]; dup {
				return nil, fmt.Errorf("group %q appears twice", key)
			}
			vals, err := aggCells([]string{strings.Join(cells[len(cells)-nAggs:], "|")})
			if err != nil {
				return nil, err
			}
			out[key] = vals
		}
		return out, nil
	}
	want, err := split(all)
	if err != nil {
		return err
	}
	got := map[string][]float64{}
	for _, p := range partitions {
		groups, err := split(p)
		if err != nil {
			return err
		}
		for k, vals := range groups {
			if got[k] == nil {
				got[k] = make([]float64, nAggs)
			}
			for i, v := range vals {
				got[k][i] += v
			}
		}
	}
	for k, vals := range want {
		sums, ok := got[k]
		if !ok {
			return fmt.Errorf("group %q in no partition", k)
		}
		for i, v := range vals {
			if v != sums[i] {
				return fmt.Errorf("group %q aggregate %d: unpartitioned=%v, partitions sum=%v", k, i, v, sums[i])
			}
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			return fmt.Errorf("group %q in a partition but not unpartitioned", k)
		}
	}
	return nil
}

// CheckTLP asserts the rowset TLP identity: the unpartitioned result must
// equal the multiset union of the partition results. Inputs are rendered
// row lines; order is irrelevant.
func CheckTLP(all []string, partitions ...[]string) error {
	var union []string
	for _, p := range partitions {
		union = append(union, p...)
	}
	a := append([]string(nil), all...)
	sort.Strings(a)
	sort.Strings(union)
	if len(a) != len(union) {
		return fmt.Errorf("row count: unpartitioned=%d, partitions sum=%d", len(a), len(union))
	}
	for i := range a {
		if a[i] != union[i] {
			return fmt.Errorf("multiset mismatch at sorted row %d: unpartitioned has %q, partitions have %q", i, a[i], union[i])
		}
	}
	return nil
}

// CheckTLPDistinct asserts the DISTINCT TLP identity: the unpartitioned
// distinct values must equal the set union of the partitions' distinct
// values (a value may appear in several partitions).
func CheckTLPDistinct(all []string, partitions ...[]string) error {
	union := map[string]bool{}
	for _, p := range partitions {
		for _, row := range p {
			union[row] = true
		}
	}
	set := map[string]bool{}
	for _, row := range all {
		set[row] = true
	}
	for row := range set {
		if !union[row] {
			return fmt.Errorf("value %q in unpartitioned DISTINCT but in no partition", row)
		}
	}
	for row := range union {
		if !set[row] {
			return fmt.Errorf("value %q in a partition's DISTINCT but not unpartitioned", row)
		}
	}
	return nil
}

// CheckTLPAggregate asserts the aggregate TLP identity for single-row
// results of the form "COUNT|SUM" (or just "COUNT"): each aggregate cell of
// the unpartitioned query must equal the sum of the partitions' cells, with
// a NULL SUM (empty partition) contributing 0.
func CheckTLPAggregate(all []string, partitions ...[]string) error {
	allCells, err := aggCells(all)
	if err != nil {
		return err
	}
	sums := make([]float64, len(allCells))
	for _, p := range partitions {
		cells, err := aggCells(p)
		if err != nil {
			return err
		}
		if len(cells) != len(allCells) {
			return fmt.Errorf("aggregate arity mismatch: %d vs %d", len(cells), len(allCells))
		}
		for i, v := range cells {
			sums[i] += v
		}
	}
	for i, v := range allCells {
		if v != sums[i] {
			return fmt.Errorf("aggregate %d: unpartitioned=%v, partitions sum=%v", i, v, sums[i])
		}
	}
	return nil
}

// aggCells parses a one-row aggregate result into numeric cells, mapping a
// NULL cell (SUM over an empty partition) to 0.
func aggCells(rows []string) ([]float64, error) {
	if len(rows) != 1 {
		return nil, fmt.Errorf("aggregate query returned %d rows, want 1", len(rows))
	}
	parts := strings.Split(rows[0], "|")
	out := make([]float64, len(parts))
	for i, p := range parts {
		if p == "NULL" {
			out[i] = 0
			continue
		}
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("aggregate cell %q is not numeric: %v", p, err)
		}
		out[i] = v
	}
	return out, nil
}
