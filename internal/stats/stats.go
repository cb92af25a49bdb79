// Package stats implements per-column statistics for the cost-based
// optimizer (paper §6.2): Vertica's StarOpt/V2Opt "uses histograms to
// determine predicate selectivity" and per-column distinct-value counts to
// size join outputs. A ColumnStats carries row/null counts, min/max, an
// NDV estimate from a small HLL-style sketch, and an equi-height histogram
// with a configurable bucket count. Statistics are computed by
// ANALYZE_STATISTICS (which scans ROS+WOS through the normal executor
// path), persisted in the catalog next to their table, and consumed by the
// optimizer's estimation layer.
//
// # Invariants
//
// Everything in this package is deterministic for a given input sequence:
// the value sample uses a seeded xorshift reservoir, so repeated ANALYZE
// runs over identical data produce identical statistics (and identical
// plans, identical EXPLAIN goldens, and identical plan-derived memory
// grants). Statistics are a consistent snapshot of one scan — RowCount ≥
// NullCount, Min ≤ Max over non-null values, and histogram bucket
// populations sum to the sampled (non-null) rows — but they are not kept
// fresh: DML after ANALYZE_STATISTICS does not invalidate them, so
// estimates derived from stale statistics may be arbitrarily wrong while
// remaining well-formed. Estimation functions clamp to [0, RowCount] and
// fall back to shape heuristics rather than extrapolate beyond the
// observed min/max. Histograms are built over a bounded reservoir sample
// and scaled to the full row count, so bucket boundaries are approximate
// on very large columns while NDV and min/max come from sketches over
// every value.
package stats

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// DefaultBuckets is the histogram bucket count when none is configured.
const DefaultBuckets = 32

// MaxBuckets bounds user-requested bucket counts (catalog snapshots embed
// every bucket boundary).
const MaxBuckets = 1024

// sampleCap bounds the builder's value reservoir. Histograms are built over
// the sample and scaled back to the full row count; NDV and min/max come
// from sketches over every value, so only bucket boundaries are approximate
// on very large columns.
const sampleCap = 1 << 16

// ColumnStats is the persisted statistics record of one table column.
type ColumnStats struct {
	Column    string `json:"column"`
	RowCount  int64  `json:"row_count"`
	NullCount int64  `json:"null_count"`
	// Min and Max are the observed extremes of non-null values; both are
	// NULL values when the column held no non-null rows.
	Min types.Value `json:"min"`
	Max types.Value `json:"max"`
	// NDV is the estimated number of distinct non-null values.
	NDV  int64      `json:"ndv"`
	Hist *Histogram `json:"histogram,omitempty"`
}

// NonNull is the number of non-null rows.
func (cs *ColumnStats) NonNull() int64 { return cs.RowCount - cs.NullCount }

// NullFraction is the fraction of rows that are NULL.
func (cs *ColumnStats) NullFraction() float64 {
	if cs.RowCount <= 0 {
		return 0
	}
	return float64(cs.NullCount) / float64(cs.RowCount)
}

// String renders the stats for EXPLAIN notes and debugging.
func (cs *ColumnStats) String() string {
	b := 0
	if cs.Hist != nil {
		b = len(cs.Hist.Buckets)
	}
	return fmt.Sprintf("stats(%s: rows=%d nulls=%d ndv=%d buckets=%d)",
		cs.Column, cs.RowCount, cs.NullCount, cs.NDV, b)
}

// Builder accumulates one column's values and produces its ColumnStats.
type Builder struct {
	column string
	typ    types.Type

	rows   int64
	nulls  int64
	min    types.Value
	max    types.Value
	sketch sketch

	// Deterministic reservoir sample of non-null values.
	sample []types.Value
	seen   int64 // non-null values observed
	rng    uint64
}

// NewBuilder starts statistics collection for one column.
func NewBuilder(column string, typ types.Type) *Builder {
	return &Builder{
		column: column,
		typ:    typ,
		min:    types.NewNull(typ),
		max:    types.NewNull(typ),
		rng:    0x9e3779b97f4a7c15, // fixed seed: ANALYZE is deterministic
	}
}

// nextRand is a xorshift64* step: cheap, seeded, deterministic.
func (b *Builder) nextRand() uint64 {
	x := b.rng
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	b.rng = x
	return x * 0x2545f4914f6cdd1d
}

// Add feeds one value into the builder.
func (b *Builder) Add(v types.Value) {
	b.rows++
	if v.Null {
		b.nulls++
		return
	}
	if b.min.Null || v.Compare(b.min) < 0 {
		b.min = v
	}
	if b.max.Null || v.Compare(b.max) > 0 {
		b.max = v
	}
	b.sketch.add(types.HashValue(v))
	b.seen++
	if len(b.sample) < sampleCap {
		b.sample = append(b.sample, v)
		return
	}
	// Reservoir replacement keeps the sample uniform over the stream.
	if j := b.nextRand() % uint64(b.seen); j < sampleCap {
		b.sample[j] = v
	}
}

// Build finalizes the statistics with an equi-height histogram of at most
// buckets buckets (<= 0 takes DefaultBuckets).
func (b *Builder) Build(buckets int) *ColumnStats {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if buckets > MaxBuckets {
		buckets = MaxBuckets
	}
	cs := &ColumnStats{
		Column:    b.column,
		RowCount:  b.rows,
		NullCount: b.nulls,
		Min:       b.min,
		Max:       b.max,
		NDV:       b.sketch.estimate(),
	}
	if nn := cs.NonNull(); cs.NDV > nn {
		cs.NDV = nn // a sketch can never legitimately exceed the row count
	}
	if len(b.sample) > 0 {
		cs.Hist = buildHistogram(sortSample(b.sample), buckets, cs.NonNull())
	}
	return cs
}

// sortSample returns a copy of the sample in stable Value.Compare order.
// Integers and strings, whose equal values are indistinguishable, sort as
// plain typed slices (pdqsort); anything else, such as floats, where -0.0
// and 0.0 compare equal but differ, takes a stable sort with the same
// comparison.
func sortSample(sample []types.Value) []types.Value {
	sorted := slices.Clone(sample)
	typ := sorted[0].Typ
	for _, v := range sorted {
		if v.Typ != typ {
			typ = types.Invalid
			break
		}
	}
	switch typ {
	case types.Int64, types.Timestamp, types.Bool:
		ints := make([]int64, len(sorted))
		for i, v := range sorted {
			ints[i] = v.I
		}
		slices.Sort(ints)
		for i, x := range ints {
			sorted[i].I = x
		}
	case types.Varchar:
		strs := make([]string, len(sorted))
		for i, v := range sorted {
			strs[i] = v.S
		}
		slices.Sort(strs)
		for i, s := range strs {
			sorted[i].S = s
		}
	default:
		slices.SortStableFunc(sorted, types.Value.Compare)
	}
	return sorted
}
