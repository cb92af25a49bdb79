package exec

import (
	"fmt"
	"math"
	"strings"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// AggKind identifies an aggregate function.
type AggKind uint8

// Aggregate functions.
const (
	AggCountStar AggKind = iota
	AggCount
	AggSum
	AggAvg
	AggMin
	AggMax
	AggCountDistinct
)

func (k AggKind) String() string {
	switch k {
	case AggCountStar:
		return "COUNT(*)"
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	case AggCountDistinct:
		return "COUNT(DISTINCT)"
	default:
		return fmt.Sprintf("AGG(%d)", k)
	}
}

// AggSpec describes one aggregate output.
type AggSpec struct {
	Kind AggKind
	// Arg is the aggregated expression over the input schema (nil for
	// COUNT(*)).
	Arg  expr.Expr
	Name string
}

// ResultType returns the aggregate's output type.
func (a *AggSpec) ResultType() types.Type {
	switch a.Kind {
	case AggCountStar, AggCount, AggCountDistinct:
		return types.Int64
	case AggAvg:
		return types.Float64
	default: // Sum, Min, Max follow the argument
		return a.Arg.Type()
	}
}

// String renders the spec.
func (a *AggSpec) String() string {
	switch a.Kind {
	case AggCountStar:
		return "COUNT(*)"
	case AggCountDistinct:
		return "COUNT(DISTINCT " + a.Arg.String() + ")"
	default:
		return a.Kind.String() + "(" + a.Arg.String() + ")"
	}
}

func describeAggs(aggs []AggSpec) string {
	parts := make([]string, len(aggs))
	for i := range aggs {
		parts[i] = aggs[i].String()
	}
	return strings.Join(parts, ", ")
}

// SupportsPartial reports whether the aggregate can be split into prepass
// partials merged by a final GroupBy (COUNT DISTINCT cannot).
func (a *AggSpec) SupportsPartial() bool { return a.Kind != AggCountDistinct }

// PartialWidth is the number of columns the aggregate's partial state
// occupies in a partial row (AVG needs sum and count).
func (a *AggSpec) PartialWidth() int {
	if a.Kind == AggAvg {
		return 2
	}
	return 1
}

// PartialCols describes the partial-state columns for prepass output.
func (a *AggSpec) PartialCols() []types.Column {
	base := sanitizeAggName(a.Name)
	switch a.Kind {
	case AggCountStar, AggCount:
		return []types.Column{{Name: base + "_cnt", Typ: types.Int64}}
	case AggAvg:
		return []types.Column{
			{Name: base + "_sum", Typ: types.Float64},
			{Name: base + "_cnt", Typ: types.Int64},
		}
	case AggSum:
		return []types.Column{{Name: base + "_sum", Typ: a.Arg.Type()}}
	case AggMin:
		return []types.Column{{Name: base + "_min", Typ: a.Arg.Type()}}
	case AggMax:
		return []types.Column{{Name: base + "_max", Typ: a.Arg.Type()}}
	default:
		return nil
	}
}

func sanitizeAggName(n string) string {
	if n == "" {
		return "agg"
	}
	return n
}

// aggCol is one aggregate's state for every group of a GroupBy or
// Prepass, struct-of-arrays: element g of each slice belongs to group g.
// A kind uses only the slices it needs:
//
//	COUNT(*), COUNT, COUNT(DISTINCT)  count
//	SUM                               sumI (integers) or sumF (floats), seen
//	AVG                               sumF, count
//	MIN, MAX                          ext, seen
type aggCol struct {
	kind  AggKind
	typ   types.Type // argument type: the result type of SUM, MIN, MAX
	count []int64
	sumI  []int64
	sumF  []float64
	seen  []bool
	ext   *vector.Vector // current MIN/MAX per group
	// distinct holds the (group, value) pairs COUNT(DISTINCT) has seen.
	distinct map[distinctKey]struct{}
}

// distinctKey is one (group, value) pair of COUNT(DISTINCT): integers in
// v, floats as their bits with -0.0 folded into 0.0, strings in s.
type distinctKey struct {
	g int32
	v uint64
	s string
}

func newAggCol(spec *AggSpec) *aggCol {
	typ := types.Int64
	if spec.Arg != nil {
		typ = spec.Arg.Type()
	}
	return newAggColOf(spec.Kind, typ)
}

// newAggColOf is an aggregate of the given kind over arguments of type
// typ.
func newAggColOf(kind AggKind, typ types.Type) *aggCol {
	a := &aggCol{kind: kind, typ: typ}
	switch kind {
	case AggMin, AggMax:
		a.ext = vector.New(a.typ, 0)
	case AggCountDistinct:
		a.distinct = map[distinctKey]struct{}{}
	}
	return a
}

// extend grows s to n zeroed elements.
func extend[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	return append(s, make([]T, n-len(s))...)
}

// grow extends the state to n groups; new groups start empty.
func (a *aggCol) grow(n int) {
	switch a.kind {
	case AggCountStar, AggCount, AggCountDistinct:
		a.count = extend(a.count, n)
	case AggAvg:
		a.sumF = extend(a.sumF, n)
		a.count = extend(a.count, n)
	case AggSum:
		a.seen = extend(a.seen, n)
		if a.typ == types.Float64 {
			a.sumF = extend(a.sumF, n)
		} else {
			a.sumI = extend(a.sumI, n)
		}
	case AggMin, AggMax:
		a.seen = extend(a.seen, n)
		switch a.typ {
		case types.Float64:
			a.ext.Floats = extend(a.ext.Floats, n)
		case types.Varchar:
			a.ext.Strs = extend(a.ext.Strs, n)
		default:
			a.ext.Ints = extend(a.ext.Ints, n)
		}
	}
}

// fold folds rows [lo, hi) into their groups, row r into group ids[r].
// in is the argument vector (nil for COUNT(*)), or with merge set the
// aggregate's partial columns (see AggSpec.PartialCols). Vectors are flat.
func (a *aggCol) fold(ids []int32, lo, hi int, in []*vector.Vector, merge bool) {
	var arg *vector.Vector
	var nulls []bool
	if len(in) > 0 {
		arg = in[0]
		nulls = arg.Nulls
	}
	switch {
	case a.kind == AggCountStar && !merge:
		for _, g := range ids[lo:hi] {
			a.count[g]++
		}
	case a.kind == AggCount && !merge:
		for r := lo; r < hi; r++ {
			if nulls == nil || !nulls[r] {
				a.count[ids[r]]++
			}
		}
	case a.kind == AggCountStar || a.kind == AggCount: // merge
		for r := lo; r < hi; r++ {
			a.count[ids[r]] += arg.Ints[r]
		}
	case a.kind == AggAvg:
		for r := lo; r < hi; r++ {
			if nulls != nil && nulls[r] {
				continue
			}
			g := ids[r]
			switch {
			case merge:
				a.sumF[g] += arg.Floats[r]
				a.count[g] += in[1].Ints[r]
				continue
			case arg.Typ == types.Float64:
				a.sumF[g] += arg.Floats[r]
			default:
				a.sumF[g] += float64(arg.Ints[r])
			}
			a.count[g]++
		}
	case a.kind == AggSum: // a partial sum folds like a value
		for r := lo; r < hi; r++ {
			if nulls != nil && nulls[r] {
				continue
			}
			g := ids[r]
			if a.typ == types.Float64 {
				a.sumF[g] += arg.Floats[r]
			} else {
				a.sumI[g] += arg.Ints[r]
			}
			a.seen[g] = true
		}
	case a.kind == AggMin || a.kind == AggMax:
		a.foldExt(ids, lo, hi, arg)
	case a.kind == AggCountDistinct:
		for r := lo; r < hi; r++ {
			if nulls != nil && nulls[r] {
				continue
			}
			k := distinctKey{g: ids[r]}
			switch arg.Typ {
			case types.Float64:
				f := arg.Floats[r]
				if f == 0 {
					f = 0 // -0.0 and 0.0 are one value, as in GROUP BY
				}
				k.v = math.Float64bits(f)
			case types.Varchar:
				k.s = arg.Strs[r]
			default:
				k.v = uint64(arg.Ints[r])
			}
			if _, dup := a.distinct[k]; !dup {
				a.distinct[k] = struct{}{}
				a.count[k.g]++
			}
		}
	}
}

// foldExt folds MIN/MAX (a partial MIN/MAX folds like a value).
func (a *aggCol) foldExt(ids []int32, lo, hi int, arg *vector.Vector) {
	min := a.kind == AggMin
	nulls := arg.Nulls
	for r := lo; r < hi; r++ {
		if nulls != nil && nulls[r] {
			continue
		}
		g := ids[r]
		var better bool
		switch arg.Typ {
		case types.Float64:
			v, cur := arg.Floats[r], a.ext.Floats[g]
			if better = !a.seen[g] || (min && v < cur) || (!min && v > cur); better {
				a.ext.Floats[g] = v
			}
		case types.Varchar:
			v, cur := arg.Strs[r], a.ext.Strs[g]
			if better = !a.seen[g] || (min && v < cur) || (!min && v > cur); better {
				a.ext.Strs[g] = v
			}
		default:
			v, cur := arg.Ints[r], a.ext.Ints[g]
			if better = !a.seen[g] || (min && v < cur) || (!min && v > cur); better {
				a.ext.Ints[g] = v
			}
		}
		a.seen[g] = true
	}
}

// final returns the aggregate's result column for groups [lo, hi). The
// column shares the state's storage: take it only once the groups are
// complete.
func (a *aggCol) final(lo, hi int) *vector.Vector {
	switch a.kind {
	case AggCountStar, AggCount, AggCountDistinct:
		return vector.NewFromInts(types.Int64, a.count[lo:hi:hi])
	case AggAvg:
		out := make([]float64, hi-lo)
		for g := lo; g < hi; g++ {
			if a.count[g] > 0 {
				out[g-lo] = a.sumF[g] / float64(a.count[g])
			}
		}
		v := vector.NewFromFloats(out)
		v.Nulls = nullsWhere(lo, hi, func(g int) bool { return a.count[g] == 0 })
		return v
	}
	v := &vector.Vector{Typ: a.typ}
	switch {
	case a.kind == AggSum && a.typ == types.Float64:
		v.Floats = a.sumF[lo:hi:hi]
	case a.kind == AggSum:
		v.Ints = a.sumI[lo:hi:hi]
	case a.typ == types.Float64:
		v.Floats = a.ext.Floats[lo:hi:hi]
	case a.typ == types.Varchar:
		v.Strs = a.ext.Strs[lo:hi:hi]
	default:
		v.Ints = a.ext.Ints[lo:hi:hi]
	}
	v.Nulls = nullsWhere(lo, hi, func(g int) bool { return !a.seen[g] })
	return v
}

// partial returns the aggregate's partial-state columns for groups
// [lo, hi) (see AggSpec.PartialCols), sharing storage like final.
func (a *aggCol) partial(lo, hi int) []*vector.Vector {
	switch a.kind {
	case AggCountStar, AggCount:
		return []*vector.Vector{a.final(lo, hi)}
	case AggAvg:
		sum := vector.NewFromFloats(a.sumF[lo:hi:hi])
		sum.Nulls = nullsWhere(lo, hi, func(g int) bool { return a.count[g] == 0 })
		return []*vector.Vector{sum, vector.NewFromInts(types.Int64, a.count[lo:hi:hi])}
	default: // SUM, MIN, MAX
		return []*vector.Vector{a.final(lo, hi)}
	}
}

// nullsWhere is a null bitmap over [lo, hi), nil when no element is null.
func nullsWhere(lo, hi int, null func(int) bool) []bool {
	var out []bool
	for g := lo; g < hi; g++ {
		if null(g) {
			if out == nil {
				out = make([]bool, hi-lo)
			}
			out[g-lo] = true
		}
	}
	return out
}

// bytes is the state's footprint.
func (a *aggCol) bytes() int64 {
	n := int64(unsafe.Sizeof(*a)) + int64(cap(a.count)+cap(a.sumI)+cap(a.sumF))*8 + int64(cap(a.seen))
	if a.ext != nil {
		n += vecBytes(a.ext)
	}
	// A map entry holds a 32-byte key plus bucket overhead.
	return n + int64(len(a.distinct))*64
}
