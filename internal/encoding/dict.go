package encoding

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// BlockDict payload: uvarint dictSize, dict entries in raw per-value format
// (sorted, so dictionary order is value order; floats are keyed by their
// bits, so -0.0 and 0.0 are separate entries), then bit-packed indexes with
// width = ceil(log2(dictSize)). "Within a data block, distinct column values
// are stored in a dictionary and actual values are replaced with references"
// (paper §3.4.1).

func encodeBlockDict(buf []byte, v *vector.Vector, sc *sortBufs) ([]byte, error) {
	idx := sc.indexes(v.PhysLen())
	var k int
	switch v.Typ {
	case types.Float64:
		keys := sortedUnique(sc.floatKeys(v.Floats))
		k = len(keys)
		buf = appendUvarint(buf, uint64(k))
		for _, key := range keys {
			buf = appendUint64(buf, math.Float64bits(floatFromKey(key)))
		}
		for i, f := range v.Floats {
			idx[i], _ = slices.BinarySearch(keys, floatKey(f))
		}
	case types.Varchar:
		keys := sortedUnique(sc.strsOf(v.Strs))
		k = len(keys)
		buf = appendUvarint(buf, uint64(k))
		for _, key := range keys {
			buf = appendUvarint(buf, uint64(len(key)))
			buf = append(buf, key...)
		}
		for i, s := range v.Strs {
			idx[i], _ = slices.BinarySearch(keys, s)
		}
	default:
		keys := sortedUnique(sc.intsOf(v.Ints))
		k = len(keys)
		buf = appendUvarint(buf, uint64(k))
		for _, key := range keys {
			buf = appendVarint(buf, key)
		}
		for i, x := range v.Ints {
			idx[i], _ = slices.BinarySearch(keys, x)
		}
	}
	return packBits(buf, idx, bitWidth(k)), nil
}

func decodeBlockDict(b []byte, t types.Type, n int) (*vector.Vector, error) {
	ds64, sz := uvarint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("encoding: corrupt BLOCK_DICT size")
	}
	if ds64 > uint64(len(b)) { // every dictionary entry costs ≥ 1 byte
		return nil, fmt.Errorf("encoding: BLOCK_DICT size %d exceeds payload", ds64)
	}
	ds := int(ds64)
	pos := sz
	switch t {
	case types.Float64:
		dict := make([]float64, ds)
		for i := range dict {
			if pos+8 > len(b) {
				return nil, fmt.Errorf("encoding: truncated BLOCK_DICT entries")
			}
			dict[i] = math.Float64frombits(getUint64(b[pos:]))
			pos += 8
		}
		idx, _ := unpackBits(b[pos:], n, bitWidth(ds))
		if idx == nil {
			return nil, fmt.Errorf("encoding: truncated BLOCK_DICT indexes")
		}
		out := make([]float64, n)
		for i, ix := range idx {
			if ix >= ds {
				return nil, fmt.Errorf("encoding: BLOCK_DICT index out of range")
			}
			out[i] = dict[ix]
		}
		return vector.NewFromFloats(out), nil
	case types.Varchar:
		dict := make([]string, ds)
		for i := range dict {
			l, sz := uvarint(b[pos:])
			if sz <= 0 || int(l) < 0 || pos+sz+int(l) > len(b) {
				return nil, fmt.Errorf("encoding: truncated BLOCK_DICT entries")
			}
			pos += sz
			dict[i] = string(b[pos : pos+int(l)])
			pos += int(l)
		}
		idx, _ := unpackBits(b[pos:], n, bitWidth(ds))
		if idx == nil {
			return nil, fmt.Errorf("encoding: truncated BLOCK_DICT indexes")
		}
		out := make([]string, n)
		for i, ix := range idx {
			if ix >= ds {
				return nil, fmt.Errorf("encoding: BLOCK_DICT index out of range")
			}
			out[i] = dict[ix]
		}
		return vector.NewFromStrings(out), nil
	default:
		dict := make([]int64, ds)
		for i := range dict {
			x, sz := varint(b[pos:])
			if sz <= 0 {
				return nil, fmt.Errorf("encoding: truncated BLOCK_DICT entries")
			}
			dict[i] = x
			pos += sz
		}
		idx, _ := unpackBits(b[pos:], n, bitWidth(ds))
		if idx == nil {
			return nil, fmt.Errorf("encoding: truncated BLOCK_DICT indexes")
		}
		out := make([]int64, n)
		for i, ix := range idx {
			if ix >= ds {
				return nil, fmt.Errorf("encoding: BLOCK_DICT index out of range")
			}
			out[i] = dict[ix]
		}
		return vector.NewFromInts(t, out), nil
	}
}
