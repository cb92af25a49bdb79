package encoding

import (
	"math"
	"slices"
	"sync"

	"repro/internal/types"
	"repro/internal/vector"
)

// Auto encoding selection (paper §3.4.1: "the system automatically picks the
// most advantageous encoding type based on properties of the data itself").
//
// Like the Database Designer's storage-optimization phase (paper §6.3), the
// choice is empirical: every applicable candidate is sized exactly from the
// block's data and the smallest wins. Ties favour the cheaper-to-decode
// scheme (the candidate order below). Sizing encodes nothing: run counts,
// varint widths and sorted-unique dictionary passes give each candidate's
// byte count, and only the winner is encoded.

// Candidate encodings per column type, in decode-cost order (cheapest
// first, used to break size ties).
var (
	floatCandidates   = []Kind{RLE, CompressedDeltaRange, BlockDict, None}
	varcharCandidates = []Kind{RLE, BlockDict, None}
	intCandidates     = []Kind{RLE, DeltaValue, CompressedCommonDelta, BlockDict, CompressedDeltaRange, None}
)

func candidateKinds(t types.Type) []Kind {
	switch t {
	case types.Float64:
		return floatCandidates
	case types.Varchar:
		return varcharCandidates
	default:
		return intCandidates
	}
}

// Choose picks the most advantageous concrete encoding for the block. It
// never returns Auto.
func Choose(v *vector.Vector) Kind {
	if v.IsRLE() {
		return RLE
	}
	sc := bufPool.Get().(*sortBufs)
	defer bufPool.Put(sc)
	k, _ := choose(v, sc)
	return k
}

// choose returns the smallest applicable candidate and its payload size.
func choose(v *vector.Vector, sc *sortBufs) (Kind, int) {
	best, bestSize := None, -1
	for _, k := range candidateKinds(v.Typ) {
		size, ok := payloadSize(k, v, sc)
		if ok && (bestSize < 0 || size < bestSize) {
			best, bestSize = k, size
		}
	}
	return best, bestSize
}

// TrialSizes encodes the block with every applicable scheme and returns the
// encoded size per kind: the brute-force reference that tests hold Choose
// and payloadSize to.
func TrialSizes(v *vector.Vector) map[Kind]int {
	out := make(map[Kind]int)
	for _, k := range candidateKinds(v.Typ) {
		enc, err := EncodeBlock(k, v)
		if err != nil {
			continue
		}
		out[k] = len(enc)
	}
	return out
}

// headerSize is the length of the block header EncodeBlock writes.
func headerSize(v *vector.Vector) int {
	n := v.PhysLen()
	size := 1 + uvarintLen(uint64(n)) + 1
	if v.HasNulls() {
		size += (n + 7) / 8
	}
	return size
}

// payloadSize returns the exact number of payload bytes kind k writes for
// the flat vector v, and false where the encoder would refuse the block.
func payloadSize(k Kind, v *vector.Vector, sc *sortBufs) (int, bool) {
	switch k {
	case None:
		if v.Typ == types.Varchar {
			return stringsSize(v.Strs), true
		}
		return 8 * v.PhysLen(), true
	case RLE:
		return rleSize(v), true
	case DeltaValue:
		return deltaValueSize(v.Ints), true
	case CompressedDeltaRange:
		return deltaRangeSize(v), true
	case BlockDict:
		return blockDictSize(v, sc), true
	case CompressedCommonDelta:
		return commonDeltaSize(v.Ints, sc)
	}
	return 0, false
}

func stringsSize(ss []string) int {
	size := 0
	for _, s := range ss {
		size += uvarintLen(uint64(len(s))) + len(s)
	}
	return size
}

// rawValueSize is the length rawValueAppend writes for slot i.
func rawValueSize(v *vector.Vector, i int) int {
	if v.Typ == types.Varchar {
		return uvarintLen(uint64(len(v.Strs[i]))) + len(v.Strs[i])
	}
	return 8
}

func rleSize(v *vector.Vector) int {
	n := v.PhysLen()
	size, runs := 0, 0
	for i := 0; i < n; {
		j := runEnd(v, i)
		size += rawValueSize(v, i) + uvarintLen(uint64(j-i))
		runs++
		i = j
	}
	return uvarintLen(uint64(runs)) + size
}

func deltaValueSize(ints []int64) int {
	mn := int64(0)
	if len(ints) > 0 {
		mn = slices.Min(ints)
	}
	size := varintLen(mn)
	for _, x := range ints {
		size += uvarintLen(uint64(x - mn))
	}
	return size
}

func deltaRangeSize(v *vector.Vector) int {
	if v.PhysLen() == 0 {
		return 0
	}
	if v.Typ == types.Float64 {
		size := 8
		prev := math.Float64bits(v.Floats[0])
		for _, f := range v.Floats[1:] {
			cur := math.Float64bits(f)
			size += uvarintLen(reverseBytes(cur ^ prev))
			prev = cur
		}
		return size
	}
	size := varintLen(v.Ints[0])
	for i := 1; i < len(v.Ints); i++ {
		size += varintLen(v.Ints[i] - v.Ints[i-1])
	}
	return size
}

func blockDictSize(v *vector.Vector, sc *sortBufs) int {
	var k, entries int
	switch v.Typ {
	case types.Float64:
		keys := sortedUnique(sc.floatKeys(v.Floats))
		k, entries = len(keys), 8*len(keys)
	case types.Varchar:
		keys := sortedUnique(sc.strsOf(v.Strs))
		k, entries = len(keys), stringsSize(keys)
	default:
		keys := sortedUnique(sc.intsOf(v.Ints))
		k = len(keys)
		for _, x := range keys {
			entries += varintLen(x)
		}
	}
	return uvarintLen(uint64(k)) + entries + packedSize(v.PhysLen(), bitWidth(k))
}

func commonDeltaSize(ints []int64, sc *sortBufs) (int, bool) {
	n := len(ints)
	if n == 0 {
		return 0, true
	}
	deltas := sc.deltas(ints)
	slices.Sort(deltas)
	size := varintLen(ints[0])
	freq := sc.freq[:0]
	defer func() { sc.freq = freq }()
	for i := 0; i < len(deltas); {
		j := i + 1
		for j < len(deltas) && deltas[j] == deltas[i] {
			j++
		}
		if len(freq) >= maxCommonDeltaDict {
			return 0, false
		}
		freq = append(freq, j-i)
		size += varintLen(deltas[i])
		i = j
	}
	size += uvarintLen(uint64(len(freq)))
	if len(freq) == 0 {
		return size, true
	}
	lengths, err := huffmanCodeLengths(freq)
	if err != nil {
		return 0, false
	}
	return size + huffmanSize(freq, lengths), true
}

// packedSize is the byte length packBits writes for n values of width bits.
func packedSize(n, width int) int { return (n*width + 7) / 8 }

// floatKey maps float bits to a uint64 whose unsigned order is the IEEE
// total order, so -0.0 and 0.0 stay distinct dictionary entries (-0.0
// first); for every other non-NaN value the order is numeric order.
func floatKey(f float64) uint64 {
	b := math.Float64bits(f)
	if b>>63 != 0 {
		return ^b
	}
	return b | 1<<63
}

// floatFromKey inverts floatKey.
func floatFromKey(k uint64) float64 {
	if k>>63 != 0 {
		return math.Float64frombits(k &^ (1 << 63))
	}
	return math.Float64frombits(^k)
}

// sortBufs holds the buffers one EncodeBlock call sorts and counts in, so
// blocks reuse them instead of allocating per candidate.
type sortBufs struct {
	ints, ints2 []int64
	keys        []uint64
	strs        []string
	idx, freq   []int
}

var bufPool = sync.Pool{New: func() any { return new(sortBufs) }}

// intsOf returns a copy of src in the first integer buffer.
func (sc *sortBufs) intsOf(src []int64) []int64 {
	sc.ints = append(sc.ints[:0], src...)
	return sc.ints
}

// deltas returns the n-1 successive differences of ints in the first
// integer buffer.
func (sc *sortBufs) deltas(ints []int64) []int64 {
	d := sc.ints[:0]
	for i := 1; i < len(ints); i++ {
		d = append(d, ints[i]-ints[i-1])
	}
	sc.ints = d
	return d
}

// floatKeys returns the floatKey of every value in the key buffer.
func (sc *sortBufs) floatKeys(fs []float64) []uint64 {
	keys := sc.keys[:0]
	for _, f := range fs {
		keys = append(keys, floatKey(f))
	}
	sc.keys = keys
	return keys
}

// strsOf returns a copy of src in the string buffer.
func (sc *sortBufs) strsOf(src []string) []string {
	sc.strs = append(sc.strs[:0], src...)
	return sc.strs
}

// indexes returns the index buffer with length n.
func (sc *sortBufs) indexes(n int) []int {
	if cap(sc.idx) < n {
		sc.idx = make([]int, n)
	}
	return sc.idx[:n]
}

// sortedUnique sorts s in place and returns its distinct values in order.
func sortedUnique[T int64 | uint64 | string](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}
