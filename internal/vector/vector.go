// Package vector implements typed column vectors and batches, the unit of
// data flow in the vectorized execution engine (paper §6.1: "the EE is fully
// vectorized and makes requests for blocks of rows at a time").
//
// A Vector holds one column's values for a batch of rows in a typed slice,
// with an optional null bitmap and an optional run-length form so operators
// can work directly on RLE-encoded data (paper §6.1: "significant care has
// been taken ... to ensure operators can operate directly on encoded data").
package vector

import (
	"fmt"
	"slices"

	"repro/internal/types"
)

// DefaultBatchSize is the number of rows operators request at a time.
const DefaultBatchSize = 4096

// Vector is a column of values of a single type.
//
// Exactly one of the typed slices is in use, selected by Typ. If Nulls is
// non-nil, Nulls[i] marks row i as SQL NULL (the corresponding typed slot is
// meaningless). If RunLens is non-nil the vector is in run-length form: entry
// i represents RunLens[i] consecutive identical rows, and Len() is the sum of
// the run lengths.
type Vector struct {
	Typ types.Type

	Ints    []int64   // Int64, Timestamp, Bool (0/1)
	Floats  []float64 // Float64
	Strs    []string  // Varchar
	Nulls   []bool    // nil if no nulls in this vector
	RunLens []int     // nil unless in RLE form

	logicalLen int // cached Len() when RunLens != nil
}

// New returns an empty vector of the given type with capacity for n rows.
func New(t types.Type, n int) *Vector {
	v := &Vector{Typ: t}
	switch t {
	case types.Float64:
		v.Floats = make([]float64, 0, n)
	case types.Varchar:
		v.Strs = make([]string, 0, n)
	default:
		v.Ints = make([]int64, 0, n)
	}
	return v
}

// NewFromInts wraps an int64 slice as a vector (no copy).
func NewFromInts(t types.Type, vals []int64) *Vector {
	if t != types.Int64 && t != types.Timestamp && t != types.Bool {
		panic("vector: NewFromInts with non-integral type " + t.String())
	}
	return &Vector{Typ: t, Ints: vals}
}

// NewFromFloats wraps a float64 slice as a vector (no copy).
func NewFromFloats(vals []float64) *Vector {
	return &Vector{Typ: types.Float64, Floats: vals}
}

// NewFromStrings wraps a string slice as a vector (no copy).
func NewFromStrings(vals []string) *Vector {
	return &Vector{Typ: types.Varchar, Strs: vals}
}

// NewConst returns a vector of n copies of value val, represented as a single
// run when n > 1.
func NewConst(val types.Value, n int) *Vector {
	v := New(val.Typ, 1)
	v.AppendValue(val)
	if n > 1 {
		v.RunLens = []int{n}
		v.logicalLen = n
	}
	return v
}

// PhysLen returns the number of physical entries (runs count as one).
func (v *Vector) PhysLen() int {
	switch v.Typ {
	case types.Float64:
		return len(v.Floats)
	case types.Varchar:
		return len(v.Strs)
	default:
		return len(v.Ints)
	}
}

// Len returns the logical number of rows.
func (v *Vector) Len() int {
	if v.RunLens == nil {
		return v.PhysLen()
	}
	if v.logicalLen == 0 {
		for _, r := range v.RunLens {
			v.logicalLen += r
		}
	}
	return v.logicalLen
}

// IsRLE reports whether the vector is in run-length form.
func (v *Vector) IsRLE() bool { return v.RunLens != nil }

// AppendValue appends one value (of the vector's type) to the vector.
func (v *Vector) AppendValue(val types.Value) {
	if val.Null {
		v.appendNullSlot()
		return
	}
	if v.Nulls != nil {
		v.Nulls = append(v.Nulls, false)
	}
	switch v.Typ {
	case types.Float64:
		f := val.F
		if val.Typ != types.Float64 {
			f = float64(val.I)
		}
		v.Floats = append(v.Floats, f)
	case types.Varchar:
		v.Strs = append(v.Strs, val.S)
	default:
		v.Ints = append(v.Ints, val.I)
	}
}

func (v *Vector) appendNullSlot() {
	if v.Nulls == nil {
		v.Nulls = make([]bool, v.PhysLen(), v.PhysLen()+1)
	}
	v.Nulls = append(v.Nulls, true)
	switch v.Typ {
	case types.Float64:
		v.Floats = append(v.Floats, 0)
	case types.Varchar:
		v.Strs = append(v.Strs, "")
	default:
		v.Ints = append(v.Ints, 0)
	}
}

// AppendNull appends a NULL row.
func (v *Vector) AppendNull() { v.appendNullSlot() }

// NullAt reports whether physical entry i is NULL.
func (v *Vector) NullAt(i int) bool { return v.Nulls != nil && v.Nulls[i] }

// ValueAt returns physical entry i as a types.Value.
// For RLE vectors i indexes runs, not rows; use Expand first for row access.
func (v *Vector) ValueAt(i int) types.Value {
	if v.NullAt(i) {
		return types.NewNull(v.Typ)
	}
	switch v.Typ {
	case types.Float64:
		return types.Value{Typ: types.Float64, F: v.Floats[i]}
	case types.Varchar:
		return types.Value{Typ: types.Varchar, S: v.Strs[i]}
	default:
		return types.Value{Typ: v.Typ, I: v.Ints[i]}
	}
}

// Expand returns a row-per-entry copy of an RLE vector (or v itself when it
// is already flat).
func (v *Vector) Expand() *Vector {
	if v.RunLens == nil {
		return v
	}
	out := New(v.Typ, v.Len())
	for i, run := range v.RunLens {
		val := v.ValueAt(i)
		for j := 0; j < run; j++ {
			out.AppendValue(val)
		}
	}
	return out
}

// AppendFrom appends entries of a flat source vector of the same type:
// every physical entry when sel is nil, otherwise the entries at the given
// physical indexes, in order. Column-at-a-time appends are the batch
// movement fast path (no per-row Value boxing); both vectors must be flat.
func (v *Vector) AppendFrom(src *Vector, sel []int) {
	if src.RunLens != nil || v.RunLens != nil {
		panic("vector: AppendFrom requires flat vectors")
	}
	n := src.PhysLen()
	if sel != nil {
		n = len(sel)
	}
	if n == 0 {
		return
	}
	if v.Nulls == nil && src.Nulls != nil && anyNull(src.Nulls, sel) {
		v.Nulls = make([]bool, v.PhysLen(), v.PhysLen()+n)
	}
	if v.Nulls != nil {
		switch {
		case src.Nulls == nil:
			for i := 0; i < n; i++ {
				v.Nulls = append(v.Nulls, false)
			}
		case sel == nil:
			v.Nulls = append(v.Nulls, src.Nulls...)
		default:
			for _, i := range sel {
				v.Nulls = append(v.Nulls, src.Nulls[i])
			}
		}
	}
	switch v.Typ {
	case types.Float64:
		if sel == nil {
			v.Floats = append(v.Floats, src.Floats...)
		} else {
			for _, i := range sel {
				v.Floats = append(v.Floats, src.Floats[i])
			}
		}
	case types.Varchar:
		if sel == nil {
			v.Strs = append(v.Strs, src.Strs...)
		} else {
			for _, i := range sel {
				v.Strs = append(v.Strs, src.Strs[i])
			}
		}
	default:
		if sel == nil {
			v.Ints = append(v.Ints, src.Ints...)
		} else {
			for _, i := range sel {
				v.Ints = append(v.Ints, src.Ints[i])
			}
		}
	}
}

// anyNull reports whether any entry of nulls (only those at sel, when
// non-nil) is set.
func anyNull(nulls []bool, sel []int) bool {
	if sel == nil {
		return slices.Contains(nulls, true)
	}
	for _, i := range sel {
		if nulls[i] {
			return true
		}
	}
	return false
}

// Gather returns a new flat vector with the entries at the given physical
// indexes, in order. The receiver must be flat.
func (v *Vector) Gather(idx []int) *Vector {
	if v.RunLens != nil {
		panic("vector: Gather on RLE vector")
	}
	out := &Vector{Typ: v.Typ}
	switch v.Typ {
	case types.Float64:
		out.Floats = make([]float64, len(idx))
		for i, j := range idx {
			out.Floats[i] = v.Floats[j]
		}
	case types.Varchar:
		out.Strs = make([]string, len(idx))
		for i, j := range idx {
			out.Strs[i] = v.Strs[j]
		}
	default:
		out.Ints = make([]int64, len(idx))
		for i, j := range idx {
			out.Ints[i] = v.Ints[j]
		}
	}
	if v.Nulls != nil && anyNull(v.Nulls, idx) {
		out.Nulls = make([]bool, len(idx))
		for i, j := range idx {
			out.Nulls[i] = v.Nulls[j]
		}
	}
	return out
}

// Slice returns a view of rows [lo, hi) of a flat vector (shares storage).
func (v *Vector) Slice(lo, hi int) *Vector {
	if v.RunLens != nil {
		panic("vector: Slice on RLE vector")
	}
	// Full slice expressions cap the view, so appending to it reallocates
	// instead of overwriting the rows after hi.
	out := &Vector{Typ: v.Typ}
	switch v.Typ {
	case types.Float64:
		out.Floats = v.Floats[lo:hi:hi]
	case types.Varchar:
		out.Strs = v.Strs[lo:hi:hi]
	default:
		out.Ints = v.Ints[lo:hi:hi]
	}
	if v.Nulls != nil {
		out.Nulls = v.Nulls[lo:hi:hi]
	}
	return out
}

// HasNulls reports whether any entry is NULL.
func (v *Vector) HasNulls() bool {
	for _, n := range v.Nulls {
		if n {
			return true
		}
	}
	return false
}

// MinMax returns the minimum and maximum non-NULL values, and ok=false if
// every row is NULL (or the vector is empty). Ties keep the first entry
// (so of -0.0 and 0.0, whichever comes first).
func (v *Vector) MinMax() (mn, mx types.Value, ok bool) {
	lo, hi := -1, -1
	for i := 0; i < v.PhysLen(); i++ {
		if v.NullAt(i) {
			continue
		}
		if lo < 0 {
			lo, hi = i, i
			continue
		}
		switch v.Typ {
		case types.Float64:
			if v.Floats[i] < v.Floats[lo] {
				lo = i
			}
			if v.Floats[i] > v.Floats[hi] {
				hi = i
			}
		case types.Varchar:
			if v.Strs[i] < v.Strs[lo] {
				lo = i
			}
			if v.Strs[i] > v.Strs[hi] {
				hi = i
			}
		default:
			if v.Ints[i] < v.Ints[lo] {
				lo = i
			}
			if v.Ints[i] > v.Ints[hi] {
				hi = i
			}
		}
	}
	if lo < 0 {
		return mn, mx, false
	}
	return v.ValueAt(lo), v.ValueAt(hi), true
}

// String renders a short description for debugging.
func (v *Vector) String() string {
	form := "flat"
	if v.IsRLE() {
		form = fmt.Sprintf("rle(%d runs)", len(v.RunLens))
	}
	return fmt.Sprintf("Vector{%s, len=%d, %s}", v.Typ, v.Len(), form)
}
