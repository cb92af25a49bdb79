package vector

import (
	"math"
	"slices"
	"strings"

	"repro/internal/types"
)

// NormKey maps physical entry r of a flat vector to a uint64 ordered like
// the value: NULL lowest, then integers with the sign bit flipped, floats
// by the IEEE total-order trick (-0.0 folded into 0.0), strings by their
// first eight bytes. Equal normalised keys only mean "compare the values"
// (CompareAt). desc inverts the order.
func NormKey(v *Vector, r int, desc bool) uint64 {
	var k uint64
	switch {
	case v.NullAt(r):
	case v.Typ == types.Float64:
		f := v.Floats[r]
		if f == 0 {
			f = 0
		}
		if b := math.Float64bits(f); b>>63 != 0 {
			k = ^b
		} else {
			k = b | 1<<63
		}
	case v.Typ == types.Varchar:
		s := v.Strs[r]
		for i := 0; i < 8; i++ {
			k <<= 8
			if i < len(s) {
				k |= uint64(s[i])
			}
		}
	default:
		k = uint64(v.Ints[r]) ^ 1<<63
	}
	if desc {
		return ^k
	}
	return k
}

// CompareAt orders entry i of a against entry j of b, two flat vectors of
// one type, as types.Value.Compare orders their values (NULLS FIRST;
// -0.0 equals 0.0).
func CompareAt(a *Vector, i int, b *Vector, j int) int {
	switch ni, nj := a.NullAt(i), b.NullAt(j); {
	case ni && nj:
		return 0
	case ni:
		return -1
	case nj:
		return 1
	}
	switch a.Typ {
	case types.Float64:
		x, y := a.Floats[i], b.Floats[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	case types.Varchar:
		return strings.Compare(a.Strs[i], b.Strs[j])
	default:
		x, y := a.Ints[i], b.Ints[j]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
		return 0
	}
}

// SortPerm returns the rows listed in sel (every row when sel is nil) of
// the flat, equal-length columns cols, ordered ascending by the key
// columns with NULLs first. The sort is stable: rows with equal keys keep
// their order in sel. It orders one (normalised first key, row) entry per
// row, so most comparisons never touch the columns. sel is not modified.
func SortPerm(cols []*Vector, key []int, sel []int) []int {
	if sel == nil {
		n := 0
		if len(cols) > 0 {
			n = cols[0].PhysLen()
		}
		sel = make([]int, n)
		for i := range sel {
			sel[i] = i
		}
	} else {
		sel = slices.Clone(sel)
	}
	if len(key) == 0 {
		return sel
	}
	type entry struct {
		key uint64
		pos int32 // position in sel: the stable tie-break
		row int32
	}
	first := cols[key[0]]
	ents := make([]entry, len(sel))
	for i, r := range sel {
		ents[i] = entry{key: NormKey(first, r, false), pos: int32(i), row: int32(r)}
	}
	slices.SortFunc(ents, func(a, b entry) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		for _, k := range key {
			if c := CompareAt(cols[k], int(a.row), cols[k], int(b.row)); c != 0 {
				return c
			}
		}
		return int(a.pos - b.pos)
	})
	for i, e := range ents {
		sel[i] = int(e.row)
	}
	return sel
}
