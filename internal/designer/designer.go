// Package designer implements the Database Designer (paper §6.3): given a
// schema, a representative query workload and sample data, it proposes
// projections (sort orders, segmentation, columns) and chooses each column's
// encoding by empirical measurement on the sample — "a series of empirical
// encoding experiments on the sample data".
//
// The two phases of the paper are preserved:
//
//  1. Query optimization: candidate projections are enumerated from the
//     workload's predicates, group-by columns, order-by columns and join
//     predicates, then scored per query.
//  2. Storage optimization: encodings are chosen by trial-encoding the
//     sample under each candidate's sort order.
package designer

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/catalog"
	"repro/internal/encoding"
	"repro/internal/expr"
	"repro/internal/optimizer"
	"repro/internal/sql"
	"repro/internal/types"
	"repro/internal/vector"
)

// Policy trades query speed against load overhead and storage footprint
// (paper §6.3: load-optimized, query-optimized and balanced policies).
type Policy int

// Design policies.
const (
	// LoadOptimized proposes only one super projection per table.
	LoadOptimized Policy = iota
	// Balanced proposes a super projection plus up to MaxExtraProjections
	// merged candidates per table.
	Balanced
	// QueryOptimized proposes one projection per distinct candidate.
	QueryOptimized
)

// MaxExtraProjections bounds non-super projections per table under the
// Balanced policy ("most customers have one super projection and between
// zero and three narrow, non-super projections", §3.1).
const MaxExtraProjections = 3

// ProposedProjection is one designed projection.
type ProposedProjection struct {
	Name       string
	Table      string
	Columns    []string
	SortOrder  []string
	Replicated bool
	SegText    string // e.g. "HASH(cust_id)"
	Encodings  map[string]encoding.Kind
	IsSuper    bool
	// Reason explains which workload queries motivated the design.
	Reason string
}

// SQL renders the CREATE PROJECTION statement.
func (p *ProposedProjection) SQL() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "CREATE PROJECTION %s ON %s (%s)", p.Name, p.Table, strings.Join(p.Columns, ", "))
	if len(p.SortOrder) > 0 {
		fmt.Fprintf(&sb, " ORDER BY %s", strings.Join(p.SortOrder, ", "))
	}
	if p.Replicated {
		sb.WriteString(" REPLICATED")
	} else if p.SegText != "" {
		fmt.Fprintf(&sb, " SEGMENTED BY %s", p.SegText)
	}
	return sb.String()
}

// Proposal is the designer's output.
type Proposal struct {
	Projections []ProposedProjection
}

// Statements renders all proposals as SQL.
func (p *Proposal) Statements() []string {
	out := make([]string, len(p.Projections))
	for i := range p.Projections {
		out[i] = p.Projections[i].SQL()
	}
	return out
}

// ReplicationRowThreshold: tables with at most this many sample rows are
// proposed as replicated dimensions.
const ReplicationRowThreshold = 100_000

// Design runs both phases. workload is SQL SELECT text; samples maps table
// name to sample rows (used for the empirical encoding experiments and the
// replicate-vs-segment decision).
func Design(cat *catalog.Catalog, workload []string, samples map[string][]types.Row, policy Policy) (*Proposal, error) {
	interests, err := analyzeWorkload(cat, workload)
	if err != nil {
		return nil, err
	}
	prop := &Proposal{}
	for _, t := range cat.Tables() {
		ti := interests[t.Name]
		cands := enumerateCandidates(t, ti, policy)
		for i := range cands {
			chooseSegmentation(t, &cands[i], ti, samples[t.Name])
			chooseEncodings(t, &cands[i], samples[t.Name])
		}
		prop.Projections = append(prop.Projections, cands...)
	}
	return prop, nil
}

// tableInterest accumulates the workload's per-table physical properties
// (the "physical-property" classification of §6.2 applied to design).
type tableInterest struct {
	eqCols    map[string]int // column -> #queries with equality predicates
	rangeCols map[string]int
	groupCols map[string]int
	joinCols  map[string]int
	usedCols  map[string]bool
	queries   int
}

func newInterest() *tableInterest {
	return &tableInterest{
		eqCols: map[string]int{}, rangeCols: map[string]int{},
		groupCols: map[string]int{}, joinCols: map[string]int{},
		usedCols: map[string]bool{},
	}
}

func analyzeWorkload(cat *catalog.Catalog, workload []string) (map[string]*tableInterest, error) {
	out := map[string]*tableInterest{}
	get := func(name string) *tableInterest {
		if out[name] == nil {
			out[name] = newInterest()
		}
		return out[name]
	}
	for _, text := range workload {
		stmt, err := sql.Parse(text)
		if err != nil {
			return nil, fmt.Errorf("designer: workload query: %w", err)
		}
		sel, ok := stmt.(*sql.SelectStmt)
		if !ok {
			return nil, fmt.Errorf("designer: workload must be SELECT statements")
		}
		q, err := sql.AnalyzeSelect(sel, cat)
		if err != nil {
			return nil, err
		}
		recordQuery(q, get)
	}
	return out, nil
}

func recordQuery(q *optimizer.LogicalQuery, get func(string) *tableInterest) {
	colName := func(flat int) (string, string) {
		off := 0
		for _, tr := range q.From {
			n := tr.Table.Schema.Len()
			if flat < off+n {
				return tr.Table.Name, tr.Table.Schema.Col(flat - off).Name
			}
			off += n
		}
		return "", ""
	}
	for _, tr := range q.From {
		get(tr.Table.Name).queries++
	}
	for _, c := range expr.Conjuncts(expr.MustAnd(q.Where, q.On)) {
		cols := expr.ColumnsOf(c)
		if len(cols) == 0 {
			continue
		}
		tn, cn := colName(cols[0])
		if tn == "" {
			continue
		}
		ti := get(tn)
		if cmp, ok := c.(*expr.Cmp); ok && cmp.Op == expr.Eq {
			ti.eqCols[cn]++
		} else {
			ti.rangeCols[cn]++
		}
		for _, f := range cols {
			tn2, cn2 := colName(f)
			if tn2 != "" {
				get(tn2).usedCols[cn2] = true
			}
		}
	}
	for _, g := range q.GroupBy {
		tn, cn := colName(g)
		if tn != "" {
			get(tn).groupCols[cn]++
			get(tn).usedCols[cn] = true
		}
	}
	for i := range q.Aggs {
		if q.Aggs[i].Arg == nil {
			continue
		}
		for _, f := range expr.ColumnsOf(q.Aggs[i].Arg) {
			tn, cn := colName(f)
			if tn != "" {
				get(tn).usedCols[cn] = true
			}
		}
	}
	for _, e := range q.SelectExprs {
		for _, f := range expr.ColumnsOf(e) {
			tn, cn := colName(f)
			if tn != "" {
				get(tn).usedCols[cn] = true
			}
		}
	}
	for _, jc := range q.JoinConds {
		lt := q.From[jc.LeftTbl].Table
		rt := q.From[jc.RightTbl].Table
		get(lt.Name).joinCols[lt.Schema.Col(jc.LeftCol).Name]++
		get(rt.Name).joinCols[rt.Schema.Col(jc.RightCol).Name]++
		get(lt.Name).usedCols[lt.Schema.Col(jc.LeftCol).Name] = true
		get(rt.Name).usedCols[rt.Schema.Col(jc.RightCol).Name] = true
	}
}

// enumerateCandidates builds the candidate projections for one table.
func enumerateCandidates(t *catalog.Table, ti *tableInterest, policy Policy) []ProposedProjection {
	allCols := t.Schema.Names()
	superSort := bestSortOrder(ti, allCols)
	super := ProposedProjection{
		Name: t.Name + "_super", Table: t.Name,
		Columns: allCols, SortOrder: superSort, IsSuper: true,
		Reason: "super projection (every table requires one, §3.2)",
	}
	out := []ProposedProjection{super}
	if policy == LoadOptimized || ti == nil {
		return out
	}
	// Narrow candidates: one per distinct (sort-driver, used-column-set).
	type cand struct {
		sortOrder []string
		cols      []string
		hits      int
	}
	var cands []cand
	addCand := func(sortCols []string) {
		if len(sortCols) == 0 {
			return
		}
		colSet := map[string]bool{}
		for c := range ti.usedCols {
			colSet[c] = true
		}
		for _, c := range sortCols {
			colSet[c] = true
		}
		var cols []string
		for _, c := range allCols {
			if colSet[c] {
				cols = append(cols, c)
			}
		}
		if len(cols) == len(allCols) && strings.Join(sortCols, ",") == strings.Join(superSort, ",") {
			return // identical to the super projection
		}
		for i := range cands {
			if strings.Join(cands[i].sortOrder, ",") == strings.Join(sortCols, ",") {
				cands[i].hits++
				return
			}
		}
		cands = append(cands, cand{sortOrder: sortCols, cols: cols, hits: 1})
	}
	// Group-by-driven candidates (one-pass aggregation), then predicate-
	// driven (scan pruning).
	for c := range ti.groupCols {
		addCand([]string{c})
	}
	for c := range ti.eqCols {
		addCand([]string{c})
	}
	for c := range ti.rangeCols {
		addCand([]string{c})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].hits > cands[j].hits })
	max := len(cands)
	if policy == Balanced && max > MaxExtraProjections {
		max = MaxExtraProjections
	}
	for i := 0; i < max; i++ {
		out = append(out, ProposedProjection{
			Name:      fmt.Sprintf("%s_by_%s", t.Name, cands[i].sortOrder[0]),
			Table:     t.Name,
			Columns:   cands[i].cols,
			SortOrder: cands[i].sortOrder,
			Reason:    fmt.Sprintf("serves %d workload pattern(s) sorted on %s", cands[i].hits, cands[i].sortOrder[0]),
		})
	}
	return out
}

// bestSortOrder orders the super projection: most-used equality columns,
// then group-by columns, then range columns, then the first column.
func bestSortOrder(ti *tableInterest, allCols []string) []string {
	if ti == nil {
		return allCols[:1]
	}
	score := map[string]int{}
	for c, n := range ti.eqCols {
		score[c] += 100 * n
	}
	for c, n := range ti.groupCols {
		score[c] += 50 * n
	}
	for c, n := range ti.rangeCols {
		score[c] += 25 * n
	}
	var ranked []string
	for _, c := range allCols {
		if score[c] > 0 {
			ranked = append(ranked, c)
		}
	}
	sort.SliceStable(ranked, func(i, j int) bool { return score[ranked[i]] > score[ranked[j]] })
	if len(ranked) == 0 {
		return allCols[:1]
	}
	if len(ranked) > 3 {
		ranked = ranked[:3]
	}
	return ranked
}

// chooseSegmentation decides replicated vs HASH segmentation: small tables
// replicate (enabling fully local joins, §3.6); large ones segment by the
// most-joined high-cardinality column.
func chooseSegmentation(t *catalog.Table, p *ProposedProjection, ti *tableInterest, sample []types.Row) {
	if len(sample) > 0 && len(sample) <= ReplicationRowThreshold {
		p.Replicated = true
		return
	}
	segCol := ""
	best := 0
	if ti != nil {
		for c, n := range ti.joinCols {
			if n > best && contains(p.Columns, c) {
				segCol, best = c, n
			}
		}
	}
	if segCol == "" {
		// Highest-cardinality integral column in the sample.
		bestCard := -1
		for _, name := range p.Columns {
			i := t.Schema.ColIndex(name)
			if i < 0 || !t.Schema.Col(i).Typ.IsIntegral() {
				continue
			}
			card := sampleCardinality(sample, i)
			if card > bestCard {
				segCol, bestCard = name, card
			}
		}
	}
	if segCol == "" {
		segCol = p.Columns[0]
	}
	p.SegText = "HASH(" + segCol + ")"
}

func contains(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

func sampleCardinality(sample []types.Row, col int) int {
	seen := map[string]bool{}
	for i, r := range sample {
		if i >= 10000 {
			break
		}
		seen[r[col].String()] = true
	}
	return len(seen)
}

// chooseEncodings runs the empirical storage-optimization phase: sort the
// sample by the proposed order and trial-encode each column ("it is
// extremely rare for any user to override the column encoding choices of
// the DBD, which we credit to the empirical measurement", §6.3).
func chooseEncodings(t *catalog.Table, p *ProposedProjection, sample []types.Row) {
	p.Encodings = map[string]encoding.Kind{}
	if len(sample) == 0 {
		for _, c := range p.Columns {
			p.Encodings[c] = encoding.Auto
		}
		return
	}
	sorted := append([]types.Row{}, sample...)
	var key []int
	for _, s := range p.SortOrder {
		if i := t.Schema.ColIndex(s); i >= 0 {
			key = append(key, i)
		}
	}
	sort.SliceStable(sorted, func(i, j int) bool {
		return sorted[i].Compare(sorted[j], key) < 0
	})
	n := len(sorted)
	if n > 8192 {
		n = 8192
	}
	for _, cn := range p.Columns {
		ci := t.Schema.ColIndex(cn)
		if ci < 0 {
			continue
		}
		v := vector.New(t.Schema.Col(ci).Typ, n)
		for i := 0; i < n; i++ {
			v.AppendValue(sorted[i][ci])
		}
		p.Encodings[cn] = encoding.Choose(v)
	}
}
