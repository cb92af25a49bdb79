package encoding

import (
	"encoding/binary"
	"math/bits"
)

// Varint / zigzag / bit-packing primitives shared by the block encoders.

func appendUvarint(buf []byte, v uint64) []byte {
	return binary.AppendUvarint(buf, v)
}

func appendVarint(buf []byte, v int64) []byte {
	return binary.AppendVarint(buf, v)
}

func uvarint(b []byte) (uint64, int) { return binary.Uvarint(b) }

func varint(b []byte) (int64, int) { return binary.Varint(b) }

// uvarintLen is the length appendUvarint writes for v.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the length appendVarint writes for v (zigzag, then uvarint).
func varintLen(v int64) int { return uvarintLen(uint64(v<<1) ^ uint64(v>>63)) }

func appendUint64(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(buf, v)
}

func getUint64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// bitWidth returns the number of bits needed to represent values in [0, n).
func bitWidth(n int) int {
	if n <= 1 {
		return 1
	}
	w := 0
	for x := n - 1; x > 0; x >>= 1 {
		w++
	}
	return w
}

// packBits appends n values of the given bit width (LSB-first within bytes).
func packBits(buf []byte, vals []int, width int) []byte {
	var cur uint64
	bits := 0
	for _, v := range vals {
		cur |= uint64(v) << bits
		bits += width
		for bits >= 8 {
			buf = append(buf, byte(cur))
			cur >>= 8
			bits -= 8
		}
	}
	if bits > 0 {
		buf = append(buf, byte(cur))
	}
	return buf
}

// unpackBits reads n values of the given bit width.
func unpackBits(b []byte, n, width int) ([]int, int) {
	out := make([]int, n)
	var cur uint64
	bits := 0
	pos := 0
	mask := uint64(1)<<width - 1
	for i := 0; i < n; i++ {
		for bits < width {
			if pos >= len(b) {
				return nil, -1
			}
			cur |= uint64(b[pos]) << bits
			pos++
			bits += 8
		}
		out[i] = int(cur & mask)
		cur >>= width
		bits -= width
	}
	return out, pos
}
