package encoding

import (
	"fmt"
	"math"

	"repro/internal/types"
	"repro/internal/vector"
)

// RLE payload: uvarint runCount, then per run: raw value + uvarint runLength.
// Null slots participate in runs via their zero value; the null bitmap in the
// block header restores them (null runs therefore compress exactly like value
// runs when the column is sorted NULLS FIRST).

func encodeRLE(buf []byte, v *vector.Vector) ([]byte, error) {
	n := v.PhysLen()
	runs := 0
	for i := 0; i < n; i = runEnd(v, i) {
		runs++
	}
	buf = appendUvarint(buf, uint64(runs))
	for i := 0; i < n; {
		j := runEnd(v, i)
		buf = rawValueAppend(buf, v.Typ, v, i)
		buf = appendUvarint(buf, uint64(j-i))
		i = j
	}
	return buf, nil
}

// runEnd returns the end of the run of slots identical to slot i: the same
// NULL flag and the same stored bits (so -0.0 never joins a run of 0.0;
// NULL slots all hold the zero value).
func runEnd(v *vector.Vector, i int) int {
	n := v.PhysLen()
	j := i + 1
	null := v.NullAt(i)
	switch v.Typ {
	case types.Float64:
		b := math.Float64bits(v.Floats[i])
		for j < n && math.Float64bits(v.Floats[j]) == b && v.NullAt(j) == null {
			j++
		}
	case types.Varchar:
		s := v.Strs[i]
		for j < n && v.Strs[j] == s && v.NullAt(j) == null {
			j++
		}
	default:
		x := v.Ints[i]
		for j < n && v.Ints[j] == x && v.NullAt(j) == null {
			j++
		}
	}
	return j
}

func decodeRLE(b []byte, t types.Type, n int, preserveRuns bool) (*vector.Vector, error) {
	rc, sz := uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("encoding: corrupt RLE run count")
	}
	// Every run costs at least two payload bytes (value + length), and no
	// run may claim more rows than the block holds: reject before any
	// count-sized allocation or expansion loop.
	if rc > uint64(len(b))/2 {
		return nil, fmt.Errorf("encoding: RLE run count %d exceeds payload", rc)
	}
	pos := sz
	if preserveRuns {
		out := vector.New(t, int(rc))
		out.RunLens = make([]int, 0, rc)
		total := 0
		for r := 0; r < int(rc); r++ {
			used, err := rawValueDecode(b[pos:], t, out)
			if err != nil {
				return nil, err
			}
			pos += used
			rl, sz := uvarint(b[pos:])
			if sz <= 0 {
				return nil, fmt.Errorf("encoding: corrupt RLE run length")
			}
			if rl > uint64(n) {
				return nil, fmt.Errorf("encoding: RLE run length %d exceeds row count %d", rl, n)
			}
			pos += sz
			out.RunLens = append(out.RunLens, int(rl))
			total += int(rl)
		}
		if total != n {
			return nil, fmt.Errorf("encoding: RLE run total %d != row count %d", total, n)
		}
		return out, nil
	}
	out := vector.New(t, n)
	scratch := vector.New(t, 1)
	total := 0
	for r := 0; r < int(rc); r++ {
		scratch.Ints = scratch.Ints[:0]
		scratch.Floats = scratch.Floats[:0]
		scratch.Strs = scratch.Strs[:0]
		used, err := rawValueDecode(b[pos:], t, scratch)
		if err != nil {
			return nil, err
		}
		pos += used
		rl, sz := uvarint(b[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("encoding: corrupt RLE run length")
		}
		if rl > uint64(n) {
			return nil, fmt.Errorf("encoding: RLE run length %d exceeds row count %d", rl, n)
		}
		pos += sz
		val := scratch.ValueAt(0)
		for k := 0; k < int(rl); k++ {
			out.AppendValue(val)
		}
		total += int(rl)
	}
	if total != n {
		return nil, fmt.Errorf("encoding: RLE run total %d != row count %d", total, n)
	}
	return out, nil
}
