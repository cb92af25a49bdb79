package optimizer

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/stats"
	"repro/internal/types"
)

// Histogram-backed cardinality estimation (paper §6.2: the optimizer "uses
// histograms to determine predicate selectivity" and distinct-value counts
// to size join outputs). Every FROM table gets a tableEstimate; tables
// without ANALYZE_STATISTICS records fall back to the original conjunct
// shape heuristics, so unanalyzed databases plan exactly as before.

// tableEstimate is the estimation state of one FROM table.
type tableEstimate struct {
	analyzed bool    // every referenced predicate column had statistics
	sel      float64 // combined selectivity of the table's local conjuncts
	// colSel maps a table column index to the combined selectivity of the
	// conjuncts over that column (used for stats-aware projection choice:
	// prefer sort orders led by the most selective predicate column).
	colSel map[int]float64
	// tstats is the table's column statistics by name (nil = unanalyzed).
	tstats map[string]*stats.ColumnStats
}

// statsOp maps an expression comparison onto the stats package's operator.
func statsOp(op expr.CmpOp) (stats.Op, bool) {
	switch op {
	case expr.Eq:
		return stats.OpEq, true
	case expr.Ne:
		return stats.OpNe, true
	case expr.Lt:
		return stats.OpLt, true
	case expr.Le:
		return stats.OpLe, true
	case expr.Gt:
		return stats.OpGt, true
	case expr.Ge:
		return stats.OpGe, true
	default:
		return 0, false
	}
}

// shapeSelectivity is the pre-statistics heuristic for one conjunct (the
// crude classifier StarOpt shipped before histograms existed).
func shapeSelectivity(c expr.Expr) float64 {
	switch e := c.(type) {
	case *expr.Cmp:
		if e.Op == expr.Eq {
			return 0.05
		}
		return 0.4
	case *expr.InList:
		return 0.1
	default:
		return 0.5
	}
}

// conjunctSelectivity estimates one conjunct from column statistics.
// ok=false means the conjunct's shape or its column's missing statistics
// force the shape heuristic.
func conjunctSelectivity(c expr.Expr, t *catalog.Table, tstats map[string]*stats.ColumnStats, flatOff int) (float64, int, bool) {
	colOf := func(e expr.Expr) (*stats.ColumnStats, int, bool) {
		cr, ok := e.(*expr.ColRef)
		if !ok {
			return nil, -1, false
		}
		col := cr.Idx - flatOff
		if col < 0 || col >= t.Schema.Len() {
			return nil, -1, false
		}
		cs := tstats[t.Schema.Col(col).Name]
		return cs, col, cs != nil
	}
	switch e := c.(type) {
	case *expr.Cmp:
		op, opOK := statsOp(e.Op)
		if !opOK {
			return 0, -1, false
		}
		if cs, col, ok := colOf(e.L); ok {
			if k, isConst := e.R.(*expr.Const); isConst {
				return cs.SelectivityCmp(op, k.Val), col, true
			}
		}
		if cs, col, ok := colOf(e.R); ok {
			if k, isConst := e.L.(*expr.Const); isConst {
				swapped, _ := statsOp(e.Op.Swap())
				return cs.SelectivityCmp(swapped, k.Val), col, true
			}
		}
		return 0, -1, false
	case *expr.InList:
		if cs, col, ok := colOf(e.Arg); ok {
			return cs.SelectivityIn(e.Vals, e.Negate), col, true
		}
		return 0, -1, false
	case *expr.IsNull:
		if cs, col, ok := colOf(e.Arg); ok {
			return cs.SelectivityIsNull(e.Negate), col, true
		}
		return 0, -1, false
	default:
		return 0, -1, false
	}
}

// estimateTable combines a table's local conjuncts into a selectivity
// estimate, histogram-backed where statistics exist.
func estimateTable(cat *catalog.Catalog, t *catalog.Table, conjuncts []expr.Expr, flatOff int) tableEstimate {
	est := tableEstimate{sel: 1, colSel: map[int]float64{}, tstats: cat.TableStats(t.Name)}
	est.analyzed = est.tstats != nil
	for _, c := range conjuncts {
		sel, col, ok := 0.0, -1, false
		if est.tstats != nil {
			sel, col, ok = conjunctSelectivity(c, t, est.tstats, flatOff)
		}
		if !ok {
			sel = shapeSelectivity(c)
			// A conjunct the histograms cannot estimate (no stats record
			// for its column — e.g. a single-column ANALYZE — or a shape
			// beyond cmp/IN/IS NULL) blends heuristics into the estimate.
			// Mark the table unanalyzed so EXPLAIN reports "heuristic" and
			// grant sizing does not trust the blend.
			est.analyzed = false
			if est.tstats != nil {
				if cols := expr.ColumnsOf(c); len(cols) > 0 {
					col = cols[0] - flatOff
				}
			}
		}
		est.sel *= sel
		if col >= 0 {
			if cur, found := est.colSel[col]; found {
				est.colSel[col] = cur * sel
			} else {
				est.colSel[col] = sel
			}
		}
	}
	return est
}

// EstimateSelectivity combines every table's local-conjunct selectivity
// into one number for the bound query, histogram-backed where statistics
// exist. The plan cache records it at insert time; EXECUTE re-binds
// parameter values and compares the fresh estimate against the recorded
// one — a ≥10× divergence means the cached plan was sized for a very
// different slice of the data and triggers a replan.
func EstimateSelectivity(cat *catalog.Catalog, q *LogicalQuery) (sel float64, statsBacked bool) {
	perTable, _, _ := q.splitConjuncts()
	offs := q.flatOffsets()
	sel, statsBacked = 1.0, true
	for i, t := range q.From {
		est := estimateTable(cat, t.Table, perTable[i], offs[i])
		sel *= est.sel
		if !est.analyzed {
			statsBacked = false
		}
	}
	return sel, statsBacked
}

// ndvOf returns a column's NDV estimate (0 when unknown).
func ndvOf(cat *catalog.Catalog, t *catalog.Table, col int) int64 {
	if col < 0 || col >= t.Schema.Len() {
		return 0
	}
	cs := cat.ColumnStats(t.Name, t.Schema.Col(col).Name)
	if cs == nil {
		return 0
	}
	return cs.NDV
}

// estimateJoinRows sizes an equi-join output: |R| x |S| / max(NDV(keys)).
// Unknown NDVs fall back to the N:1 star assumption (output = outer rows).
func estimateJoinRows(outerRows, innerRows float64, ndvOuter, ndvInner int64) float64 {
	d := ndvOuter
	if ndvInner > d {
		d = ndvInner
	}
	if d <= 0 {
		return outerRows // star-schema N:1 default
	}
	out := outerRows * innerRows / float64(d)
	if out < 0 {
		return 0
	}
	return out
}

// rowWidthOf approximates the in-memory bytes of one row of a schema.
func rowWidthOf(schema *types.Schema) int64 {
	var w int64
	for i := 0; i < schema.Len(); i++ {
		if schema.Col(i).Typ == types.Varchar {
			w += 24
		} else {
			w += 8
		}
	}
	if w < 8 {
		w = 8
	}
	return w
}

// groupCountEstimate bounds an aggregation's output rows by the product of
// the group keys' NDVs (capped at the input estimate). Unknown NDVs return
// the input estimate unchanged.
func groupCountEstimate(cat *catalog.Catalog, q *LogicalQuery, inputRows float64) float64 {
	if len(q.GroupBy) == 0 {
		if q.IsAggregate() {
			return 1 // global aggregate: one row
		}
		return inputRows
	}
	groups := 1.0
	for _, g := range q.GroupBy {
		ti, ci := q.tableOfFlat(g)
		if ti < 0 {
			return inputRows
		}
		ndv := ndvOf(cat, q.From[ti].Table, ci)
		if ndv <= 0 {
			return inputRows
		}
		groups *= float64(ndv)
		if groups > inputRows {
			return inputRows
		}
	}
	if groups > inputRows {
		return inputRows
	}
	return groups
}

// fmtEst renders a row estimate for EXPLAIN notes.
func fmtEst(rows float64) string {
	if rows < 0 {
		rows = 0
	}
	return fmt.Sprintf("%d", int64(rows+0.5))
}

// estSource names the estimation mode for EXPLAIN notes.
func estSource(analyzed bool) string {
	if analyzed {
		return "histogram"
	}
	return "heuristic"
}
