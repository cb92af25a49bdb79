package exec

import (
	"container/heap"
	"fmt"
	"slices"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// GroupBy groups and aggregates (paper §6.1 operator 2). Vertica has
// "several different hash based algorithms depending on what is needed for
// maximal performance, how much memory is allotted" plus "classic pipelined
// (one-pass) aggregates"; this operator implements:
//
//   - hash aggregation with externalization: when the hash table exceeds
//     the memory budget, groups spill to sorted partial runs that are
//     k-way merged at the end (requires partial-able aggregates);
//   - one-pass (pipelined) aggregation for inputs sorted by the group key,
//     with an RLE-direct fast path for COUNT(*) over run-length keys;
//   - a merge mode consuming partial rows produced by Prepass operators.
//
// Its state is columnar (groupState): group keys in a flat hash table,
// aggregates as struct-of-arrays accumulators, output emitted column-wise
// in group-arrival order. Only a spill sorts groups by key.
type GroupBy struct {
	single
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggSpec

	// InputSorted selects one-pass aggregation (input sorted by Keys).
	InputSorted bool
	// MergePartials marks the input as prepass partial rows: the first
	// len(Keys) columns are keys, followed by each aggregate's partial
	// columns.
	MergePartials bool

	schema       *types.Schema
	keyTypes     []types.Type
	partialTypes []types.Type // keys then every aggregate's partial columns

	st      *groupState
	budget  int64 // starts at Ctx.MemBudget, grows by grant renegotiation
	extDone bool  // denied with no spill fallback: stop renegotiating
	spills  []*spillReader

	out    *vector.Batch // every output row, sliced into batches by next
	outPos int
	opened bool
	prof   OpProf
}

// NewGroupBy builds a grouping node.
func NewGroupBy(child Operator, keys []expr.Expr, keyNames []string, aggs []AggSpec) *GroupBy {
	g := &GroupBy{single: single{child: child}, Keys: keys, KeyNames: keyNames, Aggs: aggs}
	cols := groupKeyCols(keys, keyNames)
	g.keyTypes = schemaTypes(types.NewSchema(cols...))
	g.partialTypes = append([]types.Type(nil), g.keyTypes...)
	for i := range aggs {
		name := aggs[i].Name
		if name == "" {
			name = aggs[i].String()
		}
		cols = append(cols, types.Column{Name: name, Typ: aggs[i].ResultType(), Nullable: true})
		for _, c := range aggs[i].PartialCols() {
			g.partialTypes = append(g.partialTypes, c.Typ)
		}
	}
	g.schema = types.NewSchema(cols...)
	return g
}

// groupKeyCols names and types the key columns of a grouping node.
func groupKeyCols(keys []expr.Expr, keyNames []string) []types.Column {
	cols := make([]types.Column, 0, len(keys))
	for i, k := range keys {
		name := ""
		if keyNames != nil {
			name = keyNames[i]
		}
		if name == "" {
			name = k.String()
		}
		cols = append(cols, types.Column{Name: name, Typ: k.Type(), Nullable: true})
	}
	return cols
}

// Schema implements Operator.
func (g *GroupBy) Schema() *types.Schema { return g.schema }

// Describe implements Operator.
func (g *GroupBy) Describe() string {
	mode := "hash"
	if g.InputSorted {
		mode = "one-pass"
	}
	if g.MergePartials {
		mode += "+merge-partials"
	}
	keys := make([]string, len(g.Keys))
	for i, k := range g.Keys {
		keys[i] = k.String()
	}
	return fmt.Sprintf("GroupBy(%s) keys=%v aggs=[%s]", mode, keys, describeAggs(g.Aggs))
}

// Open implements Operator.
func (g *GroupBy) Open(ctx *Ctx) error {
	g.st = newGroupState(g.keyTypes, g.Aggs, !g.InputSorted)
	g.budget = ctx.MemBudget
	g.extDone = false
	g.spills = nil
	g.out = nil
	g.outPos = 0
	g.opened = false
	return g.openChild(ctx)
}

// Close implements Operator.
func (g *GroupBy) Close(ctx *Ctx) error {
	for _, s := range g.spills {
		s.close()
	}
	g.spills = nil
	g.st = nil
	g.out = nil
	return g.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (g *GroupBy) next(ctx *Ctx) (*vector.Batch, error) {
	if !g.opened {
		if err := g.consumeAll(ctx); err != nil {
			return nil, err
		}
		g.opened = true
	}
	return nextSlice(g.out, &g.outPos), nil
}

// nextSlice returns the next batch-sized slice of out from *pos on, nil
// at the end.
func nextSlice(out *vector.Batch, pos *int) *vector.Batch {
	if out == nil || *pos >= out.Len() {
		return nil
	}
	hi := min(*pos+vector.DefaultBatchSize, out.Len())
	b := out.SliceRows(*pos, hi)
	*pos = hi
	return b
}

func (g *GroupBy) consumeAll(ctx *Ctx) error {
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		in, err := g.child.Next(ctx)
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		if g.InputSorted && g.tryRLEDirect(in) {
			continue
		}
		n, keys, args, err := groupInputs(in, g.Keys, g.Aggs, g.MergePartials)
		if err != nil {
			return err
		}
		g.st.add(n, keys, args, g.MergePartials)
		if !g.InputSorted {
			if err := g.account(ctx); err != nil {
				return err
			}
		}
	}
	if len(g.spills) > 0 {
		return g.mergeSpills(ctx)
	}
	// SQL semantics: a global aggregate (no GROUP BY) over an empty input
	// still yields one row (COUNT(*) = 0, SUM = NULL, ...).
	if len(g.Keys) == 0 && len(g.Aggs) > 0 {
		g.st.grow(1)
	}
	g.finish(ctx)
	return nil
}

// finish builds the output from the groups; it is held until drained, so
// its own columns (those not shared with the state) count as state too.
func (g *GroupBy) finish(ctx *Ctx) {
	mem := g.st.bytes()
	g.out = g.st.finalBatch()
	for a, v := range g.out.Cols[len(g.Keys):] {
		if g.Aggs[a].Kind == AggAvg {
			mem += vecBytes(v)
		} else {
			mem += int64(cap(v.Nulls))
		}
	}
	if !g.InputSorted {
		ctx.noteAlloc(&g.prof, mem)
	}
}

// account charges the hash state to the budget: at the threshold it
// renegotiates the grant and externalizes only on denial. Holistic
// aggregates (no partial form) cannot spill at all, so for them a granted
// extension also keeps the accounting honest.
func (g *GroupBy) account(ctx *Ctx) error {
	mem := g.st.bytes()
	ctx.noteAlloc(&g.prof, mem)
	for mem > g.budget && !g.extDone {
		if ext := ctx.extendBudget(g.budget, mem); ext > 0 {
			g.budget += ext
			continue
		}
		if !g.canSpill() {
			// No spill fallback and the pool said no: the state stays above
			// budget for the rest of the query, so remember the denial
			// instead of re-asking (and re-counting) on every batch.
			g.extDone = true
			break
		}
		return g.spillGroups(ctx)
	}
	return nil
}

// groupInputs flattens a batch and returns its row count, its key columns
// and, per aggregate, its input columns: the argument (none for COUNT(*)),
// or with merge set the partial columns that follow the keys.
func groupInputs(in *vector.Batch, keys []expr.Expr, aggs []AggSpec, merge bool) (int, []*vector.Vector, [][]*vector.Vector, error) {
	if in.Sel != nil {
		in = in.Flatten()
	} else {
		in.ExpandRLE()
	}
	n := in.Len()
	kv := make([]*vector.Vector, len(keys))
	args := make([][]*vector.Vector, len(aggs))
	if merge {
		copy(kv, in.Cols)
		col := len(keys)
		for a := range aggs {
			w := aggs[a].PartialWidth()
			args[a] = in.Cols[col : col+w]
			col += w
		}
		return n, kv, args, nil
	}
	for i, k := range keys {
		v, err := k.Eval(in)
		if err != nil {
			return 0, nil, nil, err
		}
		kv[i] = v.Expand()
	}
	for a := range aggs {
		if aggs[a].Arg == nil {
			continue
		}
		v, err := aggs[a].Arg.Eval(in)
		if err != nil {
			return 0, nil, nil, err
		}
		args[a] = []*vector.Vector{v.Expand()}
	}
	return n, kv, args, nil
}

func (g *GroupBy) canSpill() bool {
	if g.MergePartials {
		return true
	}
	for i := range g.Aggs {
		if !g.Aggs[i].SupportsPartial() {
			return false
		}
	}
	return true
}

// spillGroups writes the groups as a key-sorted partial run and resets.
func (g *GroupBy) spillGroups(ctx *Ctx) error {
	w, err := newSpillWriter(spillDir(ctx))
	if err != nil {
		return err
	}
	for _, row := range g.st.sortedPartialRows() {
		if err := w.writeRow(row); err != nil {
			w.abort()
			return err
		}
	}
	r, err := w.finish()
	if err != nil {
		w.abort()
		return err
	}
	g.spills = append(g.spills, r)
	g.st.clear(g.keyTypes, g.Aggs, true)
	ctx.noteSpill(&g.prof, r.bytes, "GROUP_BY_SPILLED")
	return nil
}

// mergeSpills k-way merges the spilled runs with the in-memory groups (one
// more sorted run) and aggregates the key-sorted partial rows one pass.
func (g *GroupBy) mergeSpills(ctx *Ctx) error {
	specs := make([]SortSpec, len(g.Keys))
	for i := range specs {
		specs[i] = SortSpec{Col: i}
	}
	arity := len(g.partialTypes)
	var runs []*sortedRun
	add := func(r *sortedRun) error {
		if err := r.advance(); err != nil {
			return err
		}
		if r.cur != nil {
			runs = append(runs, r)
		}
		return nil
	}
	for _, s := range g.spills {
		if err := add(&sortedRun{src: s, arity: arity}); err != nil {
			return err
		}
	}
	if err := add(&sortedRun{mem: g.st.sortedPartialRows(), arity: arity}); err != nil {
		return err
	}
	h := &sortRunHeap{runs: runs, specs: specs}
	heap.Init(h)
	g.st = newGroupState(g.keyTypes, g.Aggs, false)
	batch := newBatchOf(g.partialTypes, vector.DefaultBatchSize)
	flush := func() {
		n, keys, args, _ := groupInputs(batch, g.Keys, g.Aggs, true)
		g.st.add(n, keys, args, true)
		batch = newBatchOf(g.partialTypes, vector.DefaultBatchSize)
	}
	for h.Len() > 0 {
		row, err := h.pop()
		if err != nil {
			return err
		}
		batch.AppendRow(row)
		if batch.Len() == vector.DefaultBatchSize {
			if err := ctx.Canceled(); err != nil {
				return err
			}
			flush()
		}
	}
	flush()
	g.finish(ctx)
	return nil
}

// newBatchOf returns an empty flat batch of the given column types.
func newBatchOf(typs []types.Type, capacity int) *vector.Batch {
	cols := make([]*vector.Vector, len(typs))
	for i, t := range typs {
		cols[i] = vector.New(t, capacity)
	}
	return &vector.Batch{Cols: cols}
}

// --- one-pass (pipelined) aggregation ------------------------------------

// tryRLEDirect consumes the batch via run-length counts when every key is a
// direct column reference in RLE form with aligned runs and every aggregate
// is COUNT(*). Returns false (leaving the batch unconsumed) otherwise.
func (g *GroupBy) tryRLEDirect(in *vector.Batch) bool {
	if in.Sel != nil || g.MergePartials {
		return false
	}
	for i := range g.Aggs {
		if g.Aggs[i].Kind != AggCountStar {
			return false
		}
	}
	keyCols := make([]*vector.Vector, len(g.Keys))
	var runs []int
	for i, k := range g.Keys {
		cr, ok := k.(*expr.ColRef)
		if !ok || cr.Idx >= len(in.Cols) {
			return false
		}
		v := in.Cols[cr.Idx]
		if !v.IsRLE() {
			return false
		}
		if runs == nil {
			runs = v.RunLens
		} else if !slices.Equal(runs, v.RunLens) {
			return false
		}
		keyCols[i] = v
	}
	if runs == nil {
		return false
	}
	st := g.st
	for r, n := range runs {
		st.nextSorted(keyCols, r)
		grp := st.n - 1
		st.grow(st.n)
		for _, a := range st.aggs {
			a.count[grp] += int64(n)
		}
	}
	return true
}

// --- grouping state --------------------------------------------------------

// groupState is the grouping state shared by GroupBy and Prepass: the
// group keys, indexed by a flat hash table (hash mode) or appended in
// arrival order (one-pass mode over key-sorted input, and keyless
// aggregates, which have exactly one group and no table), and one aggCol
// per aggregate. Groups are numbered 0..n-1 in arrival order.
type groupState struct {
	keys   *colBuf    // group-indexed key columns
	table  *hashTable // nil in one-pass mode and without keys
	aggs   []*aggCol
	n      int
	keyIdx []int
	ids    []int32  // per row of the current batch: its group
	hashes []uint64 // per row of the current batch: its key hash
}

func newGroupState(keyTypes []types.Type, aggs []AggSpec, hashed bool) *groupState {
	st := &groupState{keyIdx: make([]int, len(keyTypes))}
	for i := range st.keyIdx {
		st.keyIdx[i] = i
	}
	st.clear(keyTypes, aggs, hashed)
	return st
}

// clear drops every group, keeping the current batch's scratch: emitted
// or spilled groups still share the old key and aggregate storage.
func (st *groupState) clear(keyTypes []types.Type, aggs []AggSpec, hashed bool) {
	st.keys = newColBuf(keyTypes)
	st.table = nil
	if hashed && len(keyTypes) > 0 {
		st.table = newHashTable(st.keys.cols)
	}
	st.aggs = st.aggs[:0:0]
	for i := range aggs {
		st.aggs = append(st.aggs, newAggCol(&aggs[i]))
	}
	st.n = 0
}

// grow extends every aggregate to n groups.
func (st *groupState) grow(n int) {
	st.n = max(st.n, n)
	for _, a := range st.aggs {
		a.grow(st.n)
	}
}

// add groups and folds a batch's n rows.
func (st *groupState) add(n int, keys []*vector.Vector, args [][]*vector.Vector, merge bool) {
	st.fold(0, st.assign(n, keys, 0, 0), args, merge)
}

// assign sets ids[from:end] to the groups of rows from..end-1 of a batch
// of n rows, creating groups for new keys, and returns end: n, or with
// limit > 0 in hash mode the first row whose new group would exceed limit
// groups.
func (st *groupState) assign(n int, keys []*vector.Vector, from, limit int) int {
	if from == 0 {
		st.ids = extend(st.ids[:0], n)
	}
	switch {
	case len(st.keys.cols) == 0:
		st.grow(1)
		clear(st.ids)
		return n
	case st.table != nil:
		if from == 0 {
			st.hashes = vector.NewBatch(keys...).HashesInto(st.keyIdx, st.hashes)
		}
		end := st.table.findOrInsert(st.keys, keys, st.hashes, from, st.ids, limit)
		st.grow(st.table.len())
		return end
	default:
		for i := from; i < n; i++ {
			st.nextSorted(keys, i)
			st.ids[i] = int32(st.n - 1)
		}
		st.grow(st.n)
		return n
	}
}

// nextSorted starts a new group for physical entry i of the key columns
// unless it equals the latest group's key (one-pass mode).
func (st *groupState) nextSorted(keys []*vector.Vector, i int) {
	if st.n > 0 && rowsEqual(st.keys.cols, st.n-1, keys, i) {
		return
	}
	for k, v := range keys {
		st.keys.appendValue(k, v.ValueAt(i))
	}
	st.n++
}

// fold folds rows [lo, hi) of the batch into their groups.
func (st *groupState) fold(lo, hi int, args [][]*vector.Vector, merge bool) {
	for a, col := range st.aggs {
		col.fold(st.ids, lo, hi, args[a], merge)
	}
}

// bytes is the state's footprint.
func (st *groupState) bytes() int64 {
	n := int64(unsafe.Sizeof(*st)) + int64(unsafe.Sizeof(*st.keys)) + st.keys.bytes()
	if st.table != nil {
		n += int64(unsafe.Sizeof(*st.table)) + st.table.bytes()
	}
	for _, a := range st.aggs {
		n += a.bytes()
	}
	return n + int64(cap(st.ids))*4 + int64(cap(st.hashes))*8
}

// finalBatch returns every group: key columns then aggregate results.
func (st *groupState) finalBatch() *vector.Batch {
	out := &vector.Batch{Cols: append([]*vector.Vector(nil), st.keys.cols...)}
	for _, a := range st.aggs {
		out.Cols = append(out.Cols, a.final(0, st.n))
	}
	return out
}

// partialBatch returns every group: key columns then partial columns.
func (st *groupState) partialBatch() *vector.Batch {
	out := &vector.Batch{Cols: append([]*vector.Vector(nil), st.keys.cols...)}
	for _, a := range st.aggs {
		out.Cols = append(out.Cols, a.partial(0, st.n)...)
	}
	return out
}

// sortedPartialRows returns the groups as partial rows sorted by key: the
// spill format.
func (st *groupState) sortedPartialRows() []types.Row {
	b := st.partialBatch()
	perm := make([]int, st.n)
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(x, y int) int {
		for _, k := range st.keys.cols {
			if c := vector.CompareAt(k, x, k, y); c != 0 {
				return c
			}
		}
		return 0
	})
	rows := make([]types.Row, len(perm))
	for i, p := range perm {
		rows[i] = b.Row(p)
	}
	return rows
}
