package exec

import (
	"container/heap"
	"fmt"
	"io"
	"slices"
	"unsafe"

	"repro/internal/types"
	"repro/internal/vector"
)

// SortSpec orders one column.
type SortSpec struct {
	Col  int
	Desc bool
}

// compareRows orders rows by a sort spec (NULLS FIRST ascending).
func compareRows(a, b types.Row, specs []SortSpec) int {
	for _, s := range specs {
		c := a[s.Col].Compare(b[s.Col])
		if c != 0 {
			if s.Desc {
				return -c
			}
			return c
		}
	}
	return 0
}

// Sort sorts its input (paper §6.1 operator 5: "sorts incoming data,
// externalizing if needed"). Input batches accumulate column-wise in memory
// until the budget is exceeded, at which point sorted runs spill to disk
// and the final pass is a k-way merge of the runs (see sorter).
type Sort struct {
	single
	Specs []SortSpec

	s      *sorter
	sorted bool
	prof   OpProf
}

// NewSort builds a sort node.
func NewSort(child Operator, specs []SortSpec) *Sort {
	return &Sort{single: single{child: child}, Specs: specs}
}

// Schema implements Operator.
func (s *Sort) Schema() *types.Schema { return s.child.Schema() }

// Describe implements Operator.
func (s *Sort) Describe() string {
	parts := make([]string, len(s.Specs))
	for i, sp := range s.Specs {
		dir := "asc"
		if sp.Desc {
			dir = "desc"
		}
		parts[i] = fmt.Sprintf("$%d %s", sp.Col, dir)
	}
	return fmt.Sprintf("Sort %v", parts)
}

// Open implements Operator.
func (s *Sort) Open(ctx *Ctx) error {
	s.s = newSorter(ctx, &s.prof, s.Specs, s.child.Schema())
	s.sorted = false
	return s.openChild(ctx)
}

// Close implements Operator.
func (s *Sort) Close(ctx *Ctx) error {
	s.s.close()
	s.s = nil
	return s.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (s *Sort) next(ctx *Ctx) (*vector.Batch, error) {
	if !s.sorted {
		for {
			if err := ctx.Canceled(); err != nil {
				return nil, err
			}
			in, err := s.child.Next(ctx)
			if err != nil {
				return nil, err
			}
			if in == nil {
				break
			}
			if err := s.s.add(in); err != nil {
				return nil, err
			}
		}
		if err := s.s.finish(); err != nil {
			return nil, err
		}
		s.sorted = true
	}
	return s.s.next()
}

// sorter orders a batch stream with bounded memory: the Sort operator's
// engine, and the hash join's after a switch to sort-merge. Each input
// batch is copied, compacted, into a chunk of typed columns. Sorting
// builds one sortEntry per row — its first sort key normalised to a uint64
// whose unsigned order is the key's order, so most comparisons never touch
// the columns — and orders them with slices.SortFunc; output is gathered
// column-wise from the chunks. Over budget (and denied more), the sorter
// sorts what it holds and spills it as a run in the row spill format.
type sorter struct {
	ctx     *Ctx
	prof    *OpProf // the owning operator's collector
	specs   []SortSpec
	typs    []types.Type
	chunks  []*vector.Batch
	rows    int
	bytes   int64 // the chunks' footprint, string payloads included
	ents    []sortEntry
	memUsed int64
	budget  int64 // starts at Ctx.MemBudget, grows by grant renegotiation
	runs    []*spillReader

	// output: a position in ents (in memory), or a merge of runs
	pos   int
	merge *sortRunHeap
}

// sortEntry is one buffered row in the permutation: its normalised first
// key and where it is stored.
type sortEntry struct {
	key   uint64
	chunk int32
	row   int32
}

// sortEntryBytes is a sortEntry's size: the permutation is charged from
// the first row on, as the sort will need it.
const sortEntryBytes = 16

func newSorter(ctx *Ctx, prof *OpProf, specs []SortSpec, schema *types.Schema) *sorter {
	return &sorter{ctx: ctx, prof: prof, specs: specs, typs: schemaTypes(schema), budget: ctx.MemBudget}
}

// add buffers a batch and charges the buffer to the budget, renegotiating
// the grant at the threshold and spilling a sorted run on denial.
func (s *sorter) add(in *vector.Batch) error {
	in.ExpandRLE()
	n := in.Len()
	if n == 0 {
		return nil
	}
	c := newBatchOf(s.typs, n)
	buf := colBuf{cols: c.Cols}
	buf.appendCols(in.Cols, in.Sel)
	s.chunks = append(s.chunks, c)
	s.rows += n
	s.bytes += buf.strBytes + batchBytes(c) + 8 // and its slot in chunks
	s.memUsed = int64(unsafe.Sizeof(*s)) + s.bytes + int64(s.rows)*sortEntryBytes
	s.ctx.noteAlloc(s.prof, s.memUsed)
	for s.memUsed > s.budget {
		if ext := s.ctx.extendBudget(s.budget, s.memUsed); ext > 0 {
			s.budget += ext
			continue
		}
		return s.spill()
	}
	return nil
}

// sortEntries builds and orders the permutation: normalised first key,
// then the key columns, then arrival order, which keeps the sort stable.
func (s *sorter) sortEntries() {
	first := s.specs[0]
	s.ents = make([]sortEntry, 0, s.rows)
	for ci, c := range s.chunks {
		v := c.Cols[first.Col]
		for r := 0; r < v.PhysLen(); r++ {
			s.ents = append(s.ents, sortEntry{key: vector.NormKey(v, r, first.Desc), chunk: int32(ci), row: int32(r)})
		}
	}
	slices.SortFunc(s.ents, func(a, b sortEntry) int {
		if a.key != b.key {
			if a.key < b.key {
				return -1
			}
			return 1
		}
		ca, cb := s.chunks[a.chunk].Cols, s.chunks[b.chunk].Cols
		for _, sp := range s.specs {
			if c := vector.CompareAt(ca[sp.Col], int(a.row), cb[sp.Col], int(b.row)); c != 0 {
				if sp.Desc {
					return -c
				}
				return c
			}
		}
		if a.chunk != b.chunk {
			return int(a.chunk - b.chunk)
		}
		return int(a.row - b.row)
	})
}

// sortedRows returns the buffered rows in sorted order (the spill path).
func (s *sorter) sortedRows() []types.Row {
	rows := make([]types.Row, len(s.ents))
	for i, e := range s.ents {
		rows[i] = s.chunks[e.chunk].Row(int(e.row))
	}
	return rows
}

func (s *sorter) spill() error {
	if err := s.ctx.Canceled(); err != nil {
		return err
	}
	s.sortEntries()
	w, err := newSpillWriter(spillDir(s.ctx))
	if err != nil {
		return err
	}
	row := make(types.Row, len(s.typs))
	for i, e := range s.ents {
		// Poll cancellation mid-spill: a run can be long and the whole
		// point of cancel is to stop burning disk and CPU promptly.
		if i%1024 == 0 {
			if err := s.ctx.Canceled(); err != nil {
				w.abort()
				return err
			}
		}
		for c, v := range s.chunks[e.chunk].Cols {
			row[c] = v.ValueAt(int(e.row))
		}
		if err := w.writeRow(row); err != nil {
			w.abort()
			return err
		}
	}
	rd, err := w.finish()
	if err != nil {
		w.abort()
		return err
	}
	s.runs = append(s.runs, rd)
	s.chunks, s.ents = nil, nil
	s.rows, s.bytes, s.memUsed = 0, 0, 0
	s.ctx.noteSpill(s.prof, rd.bytes, "SORT_SPILLED")
	return nil
}

// finish sorts the in-memory rows and, after spills, sets up the k-way
// merge of the runs with them. Emitting gathers one output batch at a
// time, which the budget is charged for too.
func (s *sorter) finish() error {
	s.sortEntries()
	if s.rows > 0 {
		s.memUsed = int64(unsafe.Sizeof(*s)) + s.bytes + allocBytes(int64(cap(s.ents))*sortEntryBytes) +
			s.bytes/int64(s.rows)*int64(min(s.rows, vector.DefaultBatchSize))
		s.ctx.noteAlloc(s.prof, s.memUsed)
		for s.memUsed > s.budget {
			ext := s.ctx.extendBudget(s.budget, s.memUsed)
			if ext == 0 {
				break // output batches are transient: emit anyway
			}
			s.budget += ext
		}
	}
	if len(s.runs) == 0 {
		return nil
	}
	arity := len(s.typs)
	var srcs []*sortedRun
	for _, r := range s.runs {
		srcs = append(srcs, &sortedRun{src: r, arity: arity})
	}
	srcs = append(srcs, &sortedRun{mem: s.sortedRows(), arity: arity})
	s.merge = &sortRunHeap{specs: s.specs}
	for _, r := range srcs {
		if err := r.advance(); err != nil {
			return err
		}
		if r.cur != nil {
			s.merge.runs = append(s.merge.runs, r)
		}
	}
	heap.Init(s.merge)
	s.chunks, s.ents = nil, nil
	return nil
}

// next returns the next sorted batch, nil at the end.
func (s *sorter) next() (*vector.Batch, error) {
	if s.merge != nil {
		batch := newBatchOf(s.typs, vector.DefaultBatchSize)
		for batch.Len() < vector.DefaultBatchSize && s.merge.Len() > 0 {
			row, err := s.merge.pop()
			if err != nil {
				return nil, err
			}
			batch.AppendRow(row)
		}
		if batch.Len() == 0 {
			return nil, nil
		}
		return batch, nil
	}
	if s.pos >= len(s.ents) {
		return nil, nil
	}
	ents := s.ents[s.pos:min(s.pos+vector.DefaultBatchSize, len(s.ents))]
	s.pos += len(ents)
	out := &vector.Batch{Cols: make([]*vector.Vector, len(s.typs))}
	for c := range s.typs {
		out.Cols[c] = s.gather(c, ents)
	}
	return out, nil
}

// gather returns column c of the entries' rows.
func (s *sorter) gather(c int, ents []sortEntry) *vector.Vector {
	out := &vector.Vector{Typ: s.typs[c]}
	switch out.Typ {
	case types.Float64:
		out.Floats = make([]float64, len(ents))
		for i, e := range ents {
			out.Floats[i] = s.chunks[e.chunk].Cols[c].Floats[e.row]
		}
	case types.Varchar:
		out.Strs = make([]string, len(ents))
		for i, e := range ents {
			out.Strs[i] = s.chunks[e.chunk].Cols[c].Strs[e.row]
		}
	default:
		out.Ints = make([]int64, len(ents))
		for i, e := range ents {
			out.Ints[i] = s.chunks[e.chunk].Cols[c].Ints[e.row]
		}
	}
	for i, e := range ents {
		if s.chunks[e.chunk].Cols[c].NullAt(int(e.row)) {
			if out.Nulls == nil {
				out.Nulls = make([]bool, len(ents))
			}
			out.Nulls[i] = true
		}
	}
	return out
}

func (s *sorter) close() {
	if s == nil {
		return
	}
	for _, r := range s.runs {
		r.close()
	}
	s.runs = nil
}

// sortedRun iterates one sorted run (spilled or in-memory).
type sortedRun struct {
	src   *spillReader
	mem   []types.Row
	pos   int
	arity int
	cur   types.Row
}

func (r *sortedRun) advance() error {
	if r.src != nil {
		row, err := r.src.readRow(r.arity)
		if err == io.EOF {
			r.cur = nil
			return nil
		}
		if err != nil {
			return err
		}
		r.cur = row
		return nil
	}
	if r.pos >= len(r.mem) {
		r.cur = nil
		return nil
	}
	r.cur = r.mem[r.pos]
	r.pos++
	return nil
}

// sortRunHeap k-way merges sorted runs.
type sortRunHeap struct {
	runs  []*sortedRun
	specs []SortSpec
}

func (h *sortRunHeap) Len() int { return len(h.runs) }
func (h *sortRunHeap) Less(i, j int) bool {
	return compareRows(h.runs[i].cur, h.runs[j].cur, h.specs) < 0
}
func (h *sortRunHeap) Swap(i, j int)      { h.runs[i], h.runs[j] = h.runs[j], h.runs[i] }
func (h *sortRunHeap) Push(x interface{}) { h.runs = append(h.runs, x.(*sortedRun)) }
func (h *sortRunHeap) Pop() interface{} {
	old := h.runs
	n := len(old)
	x := old[n-1]
	h.runs = old[:n-1]
	return x
}

// pop returns the smallest current row and advances its run.
func (h *sortRunHeap) pop() (types.Row, error) {
	run := h.runs[0]
	row := run.cur
	if err := run.advance(); err != nil {
		return nil, err
	}
	if run.cur == nil {
		heap.Pop(h)
	} else {
		heap.Fix(h, 0)
	}
	return row, nil
}

// sortedInput replays a sorter's output as an operator: the inputs of the
// merge join a hash join switches to.
type sortedInput struct {
	s      *sorter
	schema *types.Schema
}

func (in *sortedInput) Schema() *types.Schema            { return in.schema }
func (in *sortedInput) Open(*Ctx) error                  { return nil }
func (in *sortedInput) Next(*Ctx) (*vector.Batch, error) { return in.s.next() }
func (in *sortedInput) Close(*Ctx) error                 { in.s.close(); return nil }
func (in *sortedInput) Describe() string                 { return "SortedSpillInput" }
