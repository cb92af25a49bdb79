package exec

import (
	"math/bits"
	"unsafe"

	"repro/internal/types"
	"repro/internal/vector"
)

// The executor's hash-table storage, shared by GroupBy, Prepass and
// HashJoin (paper §6.1: the EE "is fully vectorized"; FDB's rule applies
// too — never materialise what is only filtered or aggregated). Rows are
// never boxed into types.Row or per-entry objects:
//
//   - colBuf accumulates batches column-wise in typed vectors and knows its
//     footprint, so operator memory accounting charges real column bytes;
//   - hashTable indexes dense entry ids 0..n-1 over typed key columns, with
//     one hash per entry and int32 bucket heads and next-chains. Its hashes
//     are Batch.Hashes values, the same function SIP filters and the
//     exchange's resegmentation use.

// colBuf is a growable set of typed column vectors, appended to one batch
// at a time.
type colBuf struct {
	cols     []*vector.Vector
	strBytes int64 // payload bytes of every string appended
}

func newColBuf(typs []types.Type) *colBuf {
	b := &colBuf{cols: make([]*vector.Vector, len(typs))}
	for i, t := range typs {
		b.cols[i] = vector.New(t, 0)
	}
	return b
}

// schemaTypes lists a schema's column types.
func schemaTypes(s *types.Schema) []types.Type {
	out := make([]types.Type, s.Len())
	for i := range out {
		out[i] = s.Col(i).Typ
	}
	return out
}

func (b *colBuf) len() int {
	if len(b.cols) == 0 {
		return 0
	}
	return b.cols[0].PhysLen()
}

// appendCols appends rows of flat source columns aligned with the buffer's
// (every row when sel is nil, else the rows sel lists, in order).
func (b *colBuf) appendCols(src []*vector.Vector, sel []int) {
	for i, v := range src {
		b.cols[i].AppendFrom(v, sel)
		if v.Typ != types.Varchar {
			continue
		}
		if sel == nil {
			for _, s := range v.Strs {
				b.strBytes += int64(len(s))
			}
		} else {
			for _, r := range sel {
				b.strBytes += int64(len(v.Strs[r]))
			}
		}
	}
}

// appendValue appends one value to column c.
func (b *colBuf) appendValue(c int, val types.Value) {
	b.cols[c].AppendValue(val)
	b.strBytes += int64(len(val.S))
}

// reset empties the buffer, keeping its capacity.
func (b *colBuf) reset() {
	for _, v := range b.cols {
		v.Ints, v.Floats, v.Strs = v.Ints[:0], v.Floats[:0], v.Strs[:0]
		if v.Nulls != nil {
			v.Nulls = v.Nulls[:0]
		}
	}
	b.strBytes = 0
}

// appendBatch appends every live row of a batch (RLE columns expand).
func (b *colBuf) appendBatch(in *vector.Batch) {
	in.ExpandRLE()
	b.appendCols(in.Cols, in.Sel)
}

// bytes is the buffer's footprint: allocated vector capacity plus string
// payloads.
func (b *colBuf) bytes() int64 {
	n := b.strBytes
	for _, v := range b.cols {
		n += vecBytes(v)
	}
	return n
}

// vecBytes is a vector's footprint: its header and allocated capacity
// (string headers, not payloads).
func vecBytes(v *vector.Vector) int64 {
	return int64(unsafe.Sizeof(*v)) + allocBytes(int64(cap(v.Ints))*8) + allocBytes(int64(cap(v.Floats))*8) +
		allocBytes(int64(cap(v.Strs))*16) + allocBytes(int64(cap(v.Nulls)))
}

// allocBytes bounds the heap an n-byte allocation takes: large objects
// round up to whole 8 KiB pages, small ones to a size class at most 1/8
// larger.
func allocBytes(n int64) int64 {
	if n >= 32<<10 {
		return (n + 8191) &^ 8191
	}
	return n + n/8
}

// batchBytes is a batch's footprint, its vectors included (nil: 0).
func batchBytes(b *vector.Batch) int64 {
	if b == nil {
		return 0
	}
	n := int64(unsafe.Sizeof(*b)) + int64(cap(b.Cols))*8
	for _, v := range b.Cols {
		n += vecBytes(v)
	}
	return n
}

// rowsEqual compares row i of columns a with row j of columns b under
// grouping equality: NULL equals NULL, -0.0 equals 0.0.
func rowsEqual(a []*vector.Vector, i int, b []*vector.Vector, j int) bool {
	for k, av := range a {
		if !valuesEqual(av, i, b[k], j) {
			return false
		}
	}
	return true
}

// intClass reports whether a type's values live in Vector.Ints.
func intClass(t types.Type) bool { return t != types.Float64 && t != types.Varchar }

func valuesEqual(a *vector.Vector, i int, b *vector.Vector, j int) bool {
	an, bn := a.NullAt(i), b.NullAt(j)
	if an || bn {
		return an && bn
	}
	switch {
	case a.Typ == types.Float64 && b.Typ == types.Float64:
		return a.Floats[i] == b.Floats[j]
	case a.Typ == types.Varchar && b.Typ == types.Varchar:
		return a.Strs[i] == b.Strs[j]
	case intClass(a.Typ) && intClass(b.Typ):
		return a.Ints[i] == b.Ints[j]
	default: // mixed numeric types
		return a.ValueAt(i).Compare(b.ValueAt(j)) == 0
	}
}

// hashTable maps keys to dense entry ids. keys holds entry-indexed key
// columns, which belong to a colBuf of the caller: GroupBy and Prepass
// pass theirs to findOrInsert, which appends new keys as groups appear;
// HashJoin points keys at its build buffer's key columns and links every
// build row as its own entry.
type hashTable struct {
	keys   []*vector.Vector
	hashes []uint64 // per entry
	next   []int32  // per entry: the next entry in its bucket, -1 at the end
	heads  []int32  // per bucket: the first entry, -1 when empty
	shift  uint     // 64 - log2(len(heads))
	// int1 marks the fast path: one integer-family key column.
	int1 bool
}

func newHashTable(keys []*vector.Vector) *hashTable {
	return &hashTable{
		keys: keys,
		int1: len(keys) == 1 && intClass(keys[0].Typ),
	}
}

func (t *hashTable) len() int { return len(t.hashes) }

// bucket maps a hash to a head slot by its high bits (Fibonacci hashing:
// the FNV-style Batch.Hashes mixes low bits weakly).
func (t *hashTable) bucket(h uint64) int {
	return int((h * 0x9E3779B97F4A7C15) >> t.shift)
}

// linkFrom chains entries base.. (their hashes already appended) into
// their buckets, first doubling the bucket array until it has a slot per
// entry (load factor at most 1) — a rehash links every entry.
func (t *hashTable) linkFrom(base int) {
	if n := len(t.hashes); n > len(t.heads) {
		size := max(64, 2*len(t.heads))
		for size < n {
			size *= 2
		}
		t.rehash(size)
		return
	}
	for e := base; e < len(t.hashes); e++ {
		b := t.bucket(t.hashes[e])
		t.next[e] = t.heads[b]
		t.heads[b] = int32(e)
	}
}

func (t *hashTable) rehash(size int) {
	t.heads = make([]int32, size)
	for i := range t.heads {
		t.heads[i] = -1
	}
	t.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for e, h := range t.hashes {
		b := t.bucket(h)
		t.next[e] = t.heads[b]
		t.heads[b] = int32(e)
	}
}

// first returns the head of h's chain (-1 when the table is empty).
func (t *hashTable) first(h uint64) int32 {
	if len(t.heads) == 0 {
		return -1
	}
	return t.heads[t.bucket(h)]
}

// matches reports whether entry e holds row i's key (hash h) of cols.
func (t *hashTable) matches(e int32, h uint64, cols []*vector.Vector, i int) bool {
	if t.hashes[e] != h {
		return false
	}
	if t.int1 && t.keys[0].Nulls == nil && cols[0].Nulls == nil && intClass(cols[0].Typ) {
		return t.keys[0].Ints[e] == cols[0].Ints[i]
	}
	return rowsEqual(t.keys, int(e), cols, i)
}

// addLinked registers one entry per hash, for key rows the caller already
// appended to the key columns (the join build: every build row is its own
// entry, duplicates included).
func (t *hashTable) addLinked(hashes []uint64) {
	base := len(t.hashes)
	t.hashes = append(t.hashes, hashes...)
	for range hashes {
		t.next = append(t.next, -1)
	}
	t.linkFrom(base)
}

// findOrInsert assigns rows from.. of the key columns their entry ids in
// ids, appending a new entry for each key not yet present (grouping
// equality: NULLs group together) to dst, the buffer whose columns the
// table indexes. With limit > 0 it stops at the first
// row whose insertion would grow the table past limit entries, and
// returns that row; otherwise it returns len(hashes).
func (t *hashTable) findOrInsert(dst *colBuf, cols []*vector.Vector, hashes []uint64, from int, ids []int32, limit int) int {
	one := []int{0}
	for i := from; i < len(hashes); i++ {
		h := hashes[i]
		e := t.first(h)
		for e >= 0 && !t.matches(e, h, cols, i) {
			e = t.next[e]
		}
		if e < 0 {
			if limit > 0 && t.len() >= limit {
				return i
			}
			e = int32(t.len())
			one[0] = i
			dst.appendCols(cols, one)
			t.hashes = append(t.hashes, h)
			t.next = append(t.next, -1)
			t.linkFrom(int(e))
		}
		ids[i] = e
	}
	return len(hashes)
}

// bytes is the index's footprint; the key columns are their buffer's.
func (t *hashTable) bytes() int64 {
	return allocBytes(int64(cap(t.hashes))*8) + allocBytes(int64(cap(t.next))*4) + allocBytes(int64(cap(t.heads))*4)
}
