package encoding

import (
	"fmt"
	"slices"

	"repro/internal/types"
	"repro/internal/vector"
)

// CompressedCommonDelta payload (integral only): "builds a dictionary of all
// the deltas in the block and then stores indexes into the dictionary using
// entropy coding. Best for sorted data with predictable sequences and
// occasional sequence breaks, e.g. timestamps recorded at periodic intervals
// or primary keys" (paper §3.4.1).
//
// Layout: varint firstValue, uvarint dictSize, varint dict entries, then a
// canonical-Huffman-coded stream of n-1 dictionary indexes (see huffman.go).

// maxCommonDeltaDict bounds the delta dictionary; blocks with more distinct
// deltas than this are a poor fit and encoding fails over to another scheme
// via Auto (direct encode requests get an error).
const maxCommonDeltaDict = 4096

func encodeCommonDelta(buf []byte, v *vector.Vector, sc *sortBufs) ([]byte, error) {
	if v.Typ == types.Float64 || v.Typ == types.Varchar {
		return nil, fmt.Errorf("encoding: COMMONDELTA_COMP requires integral column, got %s", v.Typ)
	}
	n := len(v.Ints)
	if n == 0 {
		return buf, nil
	}
	buf = appendVarint(buf, v.Ints[0])
	deltas := sc.deltas(v.Ints)
	sc.ints2 = append(sc.ints2[:0], deltas...)
	dict := sortedUnique(sc.ints2)
	if len(dict) > maxCommonDeltaDict {
		return nil, fmt.Errorf("encoding: COMMONDELTA_COMP delta dictionary exceeds %d entries", maxCommonDeltaDict)
	}
	buf = appendUvarint(buf, uint64(len(dict)))
	for _, d := range dict {
		buf = appendVarint(buf, d)
	}
	if len(dict) == 0 {
		return buf, nil
	}
	freq := make([]int, len(dict))
	syms := sc.indexes(len(deltas))
	for i, d := range deltas {
		s, _ := slices.BinarySearch(dict, d)
		syms[i] = s
		freq[s]++
	}
	lengths, err := huffmanCodeLengths(freq)
	if err != nil {
		return nil, err
	}
	return huffmanEncode(buf, len(dict), lengths, syms), nil
}

func decodeCommonDelta(b []byte, t types.Type, n int) (*vector.Vector, error) {
	if n == 0 {
		return vector.New(t, 0), nil
	}
	first, sz := varint(b)
	if sz <= 0 {
		return nil, fmt.Errorf("encoding: corrupt COMMONDELTA_COMP first value")
	}
	pos := sz
	ds64, sz := uvarint(b[pos:])
	if sz <= 0 {
		return nil, fmt.Errorf("encoding: corrupt COMMONDELTA_COMP dict size")
	}
	pos += sz
	if ds64 > uint64(len(b)) { // every dictionary entry costs ≥ 1 byte
		return nil, fmt.Errorf("encoding: COMMONDELTA_COMP dict size %d exceeds payload", ds64)
	}
	ds := int(ds64)
	dict := make([]int64, ds)
	for i := range dict {
		d, sz := varint(b[pos:])
		if sz <= 0 {
			return nil, fmt.Errorf("encoding: corrupt COMMONDELTA_COMP dict entry")
		}
		dict[i] = d
		pos += sz
	}
	out := make([]int64, n)
	out[0] = first
	if n > 1 {
		syms, _, err := huffmanDecode(b[pos:], n-1)
		if err != nil {
			return nil, err
		}
		for i, s := range syms {
			if s >= ds {
				return nil, fmt.Errorf("encoding: COMMONDELTA_COMP symbol out of range")
			}
			out[i+1] = out[i] + dict[s]
		}
	}
	return vector.NewFromInts(t, out), nil
}
