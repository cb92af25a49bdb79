package encoding

import (
	"fmt"
	"slices"
)

// Canonical Huffman coding over small symbol alphabets, used by the
// Compressed Common Delta encoding to entropy-code delta-dictionary indexes
// (paper §3.4.1: "stores indexes into the dictionary using entropy coding").

const maxHuffmanCodeLen = 56 // fits in a uint64 accumulator with room to spare

// huffmanCodeLengths computes canonical code lengths for the given symbol
// frequencies (freq[i] > 0 for used symbols). Single-symbol alphabets get
// length 1.
//
// The tree is built with the two-queue method: leaves sorted by (weight,
// leaf index) and internal nodes in creation order, which is also
// (weight, node index) order. Taking the smaller head of the two queues
// twice per merge is exactly what a min-heap keyed on (weight, node index)
// pops, so the code lengths match that construction bit for bit.
func huffmanCodeLengths(freq []int) ([]int, error) {
	out := make([]int, len(freq))
	var syms []int // leaf index -> symbol
	for s, f := range freq {
		if f > 0 {
			syms = append(syms, s)
		}
	}
	m := len(syms)
	if m == 0 {
		return out, nil
	}
	if m == 1 {
		out[syms[0]] = 1
		return out, nil
	}
	// Nodes 0..m-1 are the leaves, m.. the internal nodes in creation order.
	weight := make([]int, 2*m-1)
	parent := make([]int32, 2*m-1)
	leaves := make([]int32, m)
	for i, s := range syms {
		weight[i] = freq[s]
		leaves[i] = int32(i)
	}
	slices.SortFunc(leaves, func(a, b int32) int {
		if weight[a] != weight[b] {
			return weight[a] - weight[b]
		}
		return int(a - b)
	})
	li, next, qi := 0, m, m // leaf head, next internal node, internal head
	pop := func() int {
		// Internal nodes have higher indexes than every leaf, so a weight
		// tie goes to the leaf, as in the heap.
		if li < m && (qi == next || weight[leaves[li]] <= weight[qi]) {
			li++
			return int(leaves[li-1])
		}
		qi++
		return qi - 1
	}
	for next < 2*m-1 {
		a, b := pop(), pop()
		weight[next] = weight[a] + weight[b]
		parent[a], parent[b] = int32(next), int32(next)
		next++
	}
	// Parents come after their children, so one backward pass sets depths.
	depth := make([]int, 2*m-1)
	for n := 2*m - 3; n >= 0; n-- {
		depth[n] = depth[parent[n]] + 1
		if depth[n] > maxHuffmanCodeLen {
			return nil, fmt.Errorf("encoding: huffman code too long (%d)", depth[n])
		}
	}
	for i, s := range syms {
		out[s] = depth[i]
	}
	return out, nil
}

// huffmanSize is the length huffmanEncode writes for an alphabet with the
// given frequencies and code lengths: the length table, the bit count and
// the stream of sum(freq * length) bits.
func huffmanSize(freq, lengths []int) int {
	size := uvarintLen(uint64(len(lengths)))
	totalBits := 0
	for s, l := range lengths {
		size += uvarintLen(uint64(l))
		totalBits += freq[s] * l
	}
	return size + uvarintLen(uint64(totalBits)) + (totalBits+7)/8
}

// canonicalCodes assigns canonical codes (numerically increasing with length,
// then symbol order) from code lengths. Returns code bits per symbol.
func canonicalCodes(lengths []int) []uint64 {
	maxLen := slices.Max(append([]int{0}, lengths...))
	count := make([]uint64, maxLen+1)
	for _, l := range lengths {
		if l > 0 {
			count[l]++
		}
	}
	// next[l] starts at the first code of length l, as the decoder's
	// firstCode table does.
	next := make([]uint64, maxLen+1)
	var code uint64
	for l := 1; l <= maxLen; l++ {
		next[l] = code
		code = (code + count[l]) << 1
	}
	codes := make([]uint64, len(lengths))
	for s, l := range lengths {
		if l > 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

// huffmanEncode writes lengths table (uvarint per symbol) + uvarint bit count
// + MSB-first bitstream of the symbols.
func huffmanEncode(buf []byte, symCount int, lengths []int, syms []int) []byte {
	buf = appendUvarint(buf, uint64(symCount))
	for s := 0; s < symCount; s++ {
		buf = appendUvarint(buf, uint64(lengths[s]))
	}
	codes := canonicalCodes(lengths)
	totalBits := 0
	for _, s := range syms {
		totalBits += lengths[s]
	}
	buf = appendUvarint(buf, uint64(totalBits))
	var acc uint64
	accBits := 0
	for _, s := range syms {
		l := lengths[s]
		acc = acc<<uint(l) | codes[s]
		accBits += l
		for accBits >= 8 {
			buf = append(buf, byte(acc>>uint(accBits-8)))
			accBits -= 8
		}
	}
	if accBits > 0 {
		buf = append(buf, byte(acc<<uint(8-accBits)))
	}
	return buf
}

// huffmanDecode reads what huffmanEncode wrote, returning n decoded symbols
// and the number of payload bytes consumed.
func huffmanDecode(b []byte, n int) ([]int, int, error) {
	sc64, sz := uvarint(b)
	if sz <= 0 {
		return nil, 0, fmt.Errorf("encoding: corrupt huffman symbol count")
	}
	if sc64 > uint64(len(b)) { // every length entry costs ≥ 1 byte
		return nil, 0, fmt.Errorf("encoding: huffman symbol count %d exceeds payload", sc64)
	}
	pos := sz
	symCount := int(sc64)
	lengths := make([]int, symCount)
	for s := 0; s < symCount; s++ {
		l, sz := uvarint(b[pos:])
		if sz <= 0 {
			return nil, 0, fmt.Errorf("encoding: corrupt huffman length table")
		}
		if l > 64 { // codes are accumulated in a uint64
			return nil, 0, fmt.Errorf("encoding: huffman code length %d exceeds 64 bits", l)
		}
		lengths[s] = int(l)
		pos += sz
	}
	bits64, sz := uvarint(b[pos:])
	if sz <= 0 {
		return nil, 0, fmt.Errorf("encoding: corrupt huffman bit count")
	}
	pos += sz
	totalBits := int(bits64)
	byteLen := (totalBits + 7) / 8
	if pos+byteLen > len(b) {
		return nil, 0, fmt.Errorf("encoding: truncated huffman bitstream")
	}
	stream := b[pos : pos+byteLen]
	pos += byteLen

	// Canonical decode tables: because codes are assigned numerically
	// increasing by (length, symbol), a code c of length l is valid iff
	// firstCode[l] <= c < firstCode[l]+count[l], and its symbol is the
	// (c-firstCode[l])-th symbol of length l in symbol order. Array math per
	// bit, no per-symbol map probes.
	maxLen := 0
	for _, l := range lengths {
		if l > maxLen {
			maxLen = l
		}
	}
	if maxLen == 0 && n > 0 {
		return nil, 0, fmt.Errorf("encoding: huffman table has no codes")
	}
	// One spare slot past maxLen: the accumulator reaches maxLen+1 before
	// the top-of-loop overflow check fires, and must find no match there.
	count := make([]int, maxLen+2)
	for _, l := range lengths {
		if l > 0 {
			count[l]++
		}
	}
	firstCode := make([]uint64, maxLen+2)
	offset := make([]int, maxLen+2)
	var code uint64
	idx := 0
	for l := 1; l <= maxLen; l++ {
		firstCode[l] = code
		offset[l] = idx
		code = (code + uint64(count[l])) << 1
		idx += count[l]
	}
	symOfRank := make([]int, idx)
	rank := append([]int(nil), offset...)
	for s, l := range lengths {
		if l > 0 {
			symOfRank[rank[l]] = s
			rank[l]++
		}
	}

	out := make([]int, 0, n)
	var acc uint64
	accLen := 0
	bitPos := 0
	for len(out) < n {
		if accLen > maxLen {
			return nil, 0, fmt.Errorf("encoding: invalid huffman stream")
		}
		if bitPos >= totalBits && accLen == 0 {
			return nil, 0, fmt.Errorf("encoding: huffman stream exhausted after %d of %d symbols", len(out), n)
		}
		if bitPos < totalBits {
			acc = acc<<1 | uint64(stream[bitPos>>3]>>(7-bitPos&7)&1)
			bitPos++
			accLen++
		} else {
			return nil, 0, fmt.Errorf("encoding: huffman stream exhausted mid-symbol")
		}
		if r := acc - firstCode[accLen]; acc >= firstCode[accLen] && r < uint64(count[accLen]) {
			out = append(out, symOfRank[offset[accLen]+int(r)])
			acc, accLen = 0, 0
		}
	}
	return out, pos, nil
}
