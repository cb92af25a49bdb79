package exec

import (
	"fmt"
	"unsafe"

	"repro/internal/expr"
	"repro/internal/metrics"
	"repro/internal/types"
	"repro/internal/vector"
)

// JoinType enumerates the supported join flavors (paper §6.1: "all flavors
// of INNER, LEFT OUTER, RIGHT OUTER, FULL OUTER, SEMI, and ANTI joins").
type JoinType uint8

// Join flavors.
const (
	InnerJoin JoinType = iota
	LeftOuterJoin
	RightOuterJoin
	FullOuterJoin
	SemiJoin
	AntiJoin
)

func (t JoinType) String() string {
	switch t {
	case InnerJoin:
		return "INNER"
	case LeftOuterJoin:
		return "LEFT OUTER"
	case RightOuterJoin:
		return "RIGHT OUTER"
	case FullOuterJoin:
		return "FULL OUTER"
	case SemiJoin:
		return "SEMI"
	case AntiJoin:
		return "ANTI"
	default:
		return fmt.Sprintf("JOIN(%d)", t)
	}
}

// HashJoin builds a hash table from its inner (build) input and probes it
// with the outer input. If the build side exceeds the memory budget at run
// time, the operator switches to a sort-merge join ("we will perform a
// sort-merge join instead", paper §6.1). When a SIP filter is attached, the
// build-side key hashes are published to the probe-side scan.
//
// The build side is held column-wise (colBuf) and indexed by the shared
// flat hashTable, one entry per build row. Probing a batch yields
// (probe index, build index) selection vectors; the residual, if any, is
// evaluated once over the candidate pairs gathered into a batch, and the
// output columns are gathered from the surviving pairs, with NULLs where
// an outer join pads.
type HashJoin struct {
	Type  JoinType
	outer Operator
	inner Operator
	// OuterKeys / InnerKeys are equi-join column indexes (aligned pairs).
	OuterKeys []int
	InnerKeys []int
	// Residual is an extra non-equi predicate over the combined schema
	// (outer columns then inner columns).
	Residual expr.Expr
	// SIP, when set, receives the build-side key set (see sip.go).
	SIP *SIPFilter

	schema *types.Schema

	build   *colBuf    // the inner rows
	table   *hashTable // over build's key columns
	matched []bool     // per build row, for right/full outer emission
	built   bool
	spilled bool
	merge   *MergeJoin // the sort-merge join after a switch

	// probe state: the current outer batch, its key columns and hashes,
	// the next row to probe, and where in that row's chain to resume.
	probe     *vector.Batch
	probeKeys []*vector.Vector
	hashes    []uint64
	row       int
	inRow     bool  // row's chain walk has started
	cur       int32 // next chain entry of row
	pairs     joinPairs
	pending   []*vector.Batch
	innerDone bool
	prof      OpProf
}

// NewHashJoin builds a hash join; outer is the probe side, inner the build
// side ("the HashJoin will first create a hash table from the inner input").
func NewHashJoin(t JoinType, outer, inner Operator, outerKeys, innerKeys []int) (*HashJoin, error) {
	if len(outerKeys) != len(innerKeys) || len(outerKeys) == 0 {
		return nil, fmt.Errorf("exec: join requires aligned, non-empty key lists")
	}
	j := &HashJoin{Type: t, outer: outer, inner: inner, OuterKeys: outerKeys, InnerKeys: innerKeys}
	j.schema = joinSchema(t, outer.Schema(), inner.Schema())
	return j, nil
}

// evalMask evaluates a predicate over a batch: true where it holds.
func evalMask(pred expr.Expr, b *vector.Batch) ([]bool, error) {
	v, err := pred.Eval(b)
	if err != nil {
		return nil, err
	}
	v = v.Expand()
	mask := make([]bool, b.Len())
	for i := range mask {
		mask[i] = !v.NullAt(i) && v.ValueAt(i).Bool()
	}
	return mask, nil
}

func joinSchema(t JoinType, outer, inner *types.Schema) *types.Schema {
	cols := append([]types.Column{}, outer.Cols...)
	if t != SemiJoin && t != AntiJoin {
		cols = append(cols, inner.Cols...)
	}
	// Join outputs are nullable on the padded side.
	out := make([]types.Column, len(cols))
	copy(out, cols)
	for i := range out {
		out[i].Nullable = true
	}
	return types.NewSchema(out...)
}

// Schema implements Operator.
func (j *HashJoin) Schema() *types.Schema { return j.schema }

// Children implements the plan walker.
func (j *HashJoin) Children() []Operator { return []Operator{j.outer, j.inner} }

// Describe implements Operator.
func (j *HashJoin) Describe() string {
	d := fmt.Sprintf("HashJoin %s outerKeys=%v innerKeys=%v", j.Type, j.OuterKeys, j.InnerKeys)
	if j.spilled {
		d += " (switched to sort-merge)"
	}
	if j.SIP != nil {
		d += " +sip"
	}
	return d
}

// Open implements Operator.
func (j *HashJoin) Open(ctx *Ctx) error {
	j.build, j.table, j.matched = nil, nil, nil
	j.built, j.spilled, j.innerDone = false, false, false
	j.merge = nil
	j.probe, j.row, j.inRow = nil, 0, false
	j.pairs = joinPairs{}
	j.pending = nil
	if err := j.outer.Open(ctx); err != nil {
		return err
	}
	return j.inner.Open(ctx)
}

// Close implements Operator. It drops the build side and probe state so
// a retained plan tree does not pin them.
func (j *HashJoin) Close(ctx *Ctx) error {
	if j.merge != nil {
		j.merge.Close(ctx) // removes the sorted runs
	}
	j.build, j.table, j.matched, j.merge = nil, nil, nil, nil
	j.probe, j.probeKeys, j.hashes, j.pending = nil, nil, nil, nil
	j.pairs = joinPairs{}
	if err := j.outer.Close(ctx); err != nil {
		j.inner.Close(ctx)
		return err
	}
	return j.inner.Close(ctx)
}

// memBytes is the build side's footprint, the operator's own included.
func (j *HashJoin) memBytes() int64 {
	return int64(unsafe.Sizeof(*j)) + j.build.bytes() + j.table.bytes() + int64(cap(j.matched))
}

// buildTable drains the inner input into the hash table, renegotiating the
// grant at the budget threshold and switching to sort-merge when the
// governor denies the extension.
func (j *HashJoin) buildTable(ctx *Ctx) error {
	j.build = newColBuf(schemaTypes(j.inner.Schema()))
	keys := make([]*vector.Vector, len(j.InnerKeys))
	for i, k := range j.InnerKeys {
		keys[i] = j.build.cols[k]
	}
	j.table = newHashTable(keys)
	budget := ctx.MemBudget
	for {
		if err := ctx.Canceled(); err != nil {
			return err
		}
		in, err := j.inner.Next(ctx)
		if err != nil {
			return err
		}
		if in == nil {
			break
		}
		hashes := in.Hashes(j.InnerKeys)
		j.build.appendBatch(in)
		j.table.addLinked(hashes)
		mem := j.memBytes()
		ctx.noteAlloc(&j.prof, mem)
		for mem > budget {
			// Ask for more memory before abandoning the hash table: the
			// sort-merge switch rereads the whole inner side, so growing in
			// place is strictly cheaper while the pool has headroom.
			if ext := ctx.extendBudget(budget, mem); ext > 0 {
				budget += ext
				continue
			}
			// Runtime algorithm switch: abandon the hash table and join by
			// sorting both sides. The budget extended so far stays granted,
			// so the inner sorter inherits it rather than re-requesting
			// memory the query already holds.
			return j.switchToSortMerge(ctx, budget)
		}
	}
	j.built = true
	if j.Type == RightOuterJoin || j.Type == FullOuterJoin {
		j.matched = make([]bool, j.build.len())
	}
	if j.SIP != nil {
		keys := make(map[uint64]bool, j.table.len())
		for _, h := range j.table.hashes {
			keys[h] = true
		}
		j.SIP.Publish(keys)
	}
	return nil
}

// next is the operator body behind the profiled Next (profile.go).
func (j *HashJoin) next(ctx *Ctx) (*vector.Batch, error) {
	if !j.built && j.merge == nil {
		if err := j.buildTable(ctx); err != nil {
			return nil, err
		}
	}
	if j.merge != nil {
		return j.merge.next(ctx)
	}
	for {
		if len(j.pending) > 0 {
			b := j.pending[0]
			j.pending = j.pending[1:]
			return b, nil
		}
		if j.probe != nil && j.row < j.probe.Len() {
			out, err := j.probeChunk()
			if err != nil {
				return nil, err
			}
			// The probe's working set: the build side, the chunk scratch
			// and the batch gathered from it.
			ctx.noteAlloc(&j.prof, j.memBytes()+j.pairs.bytes()+int64(cap(j.hashes))*8+batchBytes(out))
			continue
		}
		out, err := j.outer.Next(ctx)
		if err != nil {
			return nil, err
		}
		if out == nil {
			if j.matched != nil && !j.innerDone {
				j.innerDone = true
				j.emitUnmatchedInner()
				continue
			}
			return nil, nil
		}
		j.startProbe(out)
	}
}

// startProbe makes b the batch being probed.
func (j *HashJoin) startProbe(b *vector.Batch) {
	if b.Sel != nil {
		b = b.Flatten()
	} else {
		b.ExpandRLE()
	}
	j.probe = b
	j.hashes = b.HashesInto(j.OuterKeys, j.hashes)
	j.probeKeys = j.probeKeys[:0]
	for _, k := range j.OuterKeys {
		j.probeKeys = append(j.probeKeys, b.Cols[k])
	}
	j.row, j.inRow = 0, false
}

// joinChunk bounds the candidate pairs gathered per step: enough to
// amortize the vectorized residual, small enough that a skewed chain of a
// million duplicates never materializes at once.
const joinChunk = vector.DefaultBatchSize

// probeStep is one probe event: a candidate pair (probe row, build row),
// or with build < 0 the end of the probe row's candidates.
type probeStep struct{ probe, build int }

// joinPairs is one chunk of join work, reused from chunk to chunk: the
// probe events HashJoin and MergeJoin record, and the output pairs resolve
// turns them into under the join type's semantics.
type joinPairs struct {
	steps        []probeStep
	candP, candB []int
	outP, outB   []int
	// rowHit: the probe row being resolved has a surviving match. A hash
	// join row can span chunks, so it persists until the row's end event.
	rowHit bool
}

func (p *joinPairs) reset() {
	p.steps, p.candP, p.candB = p.steps[:0], p.candP[:0], p.candB[:0]
}

// add records a candidate pair.
func (p *joinPairs) add(probe, build int) {
	p.steps = append(p.steps, probeStep{probe, build})
	p.candP, p.candB = append(p.candP, probe), append(p.candB, build)
}

// end records the end of a probe row's candidates.
func (p *joinPairs) end(probe int) { p.steps = append(p.steps, probeStep{probe, -1}) }

func (p *joinPairs) bytes() int64 {
	return int64(cap(p.steps))*16 + int64(cap(p.candP)+cap(p.candB)+cap(p.outP)+cap(p.outB))*8
}

// resolve evaluates the residual once over the candidate pairs gathered
// into a batch, then walks the events: surviving pairs become output pairs
// (semi/anti joins keep one decision per probe row), a row ending without
// one is padded (outer joins) or kept (anti join), and matched build rows
// are marked when matched is non-nil. It returns the output gathered from
// outer (probe rows) and inner (build columns), nil when there is none.
func (p *joinPairs) resolve(t JoinType, residual expr.Expr, outer *vector.Batch, inner []*vector.Vector, matched []bool) (*vector.Batch, error) {
	semiAnti := t == SemiJoin || t == AntiJoin
	var keep []bool
	if residual != nil && len(p.candP) > 0 {
		var err error
		if keep, err = evalMask(residual, gatherPairs(outer, inner, p.candP, p.candB, true)); err != nil {
			return nil, err
		}
	}
	outP, outB := p.outP[:0], p.outB[:0]
	c := 0
	for _, st := range p.steps {
		if st.build < 0 {
			if !p.rowHit {
				switch t {
				case LeftOuterJoin, FullOuterJoin:
					outP, outB = append(outP, st.probe), append(outB, -1)
				case AntiJoin:
					outP = append(outP, st.probe)
				}
			}
			p.rowHit = false
			continue
		}
		ok := keep == nil || keep[c]
		c++
		if !ok || (semiAnti && p.rowHit) {
			continue
		}
		p.rowHit = true
		if matched != nil {
			matched[st.build] = true
		}
		switch t {
		case SemiJoin:
			outP = append(outP, st.probe)
		case AntiJoin:
		default:
			outP, outB = append(outP, st.probe), append(outB, st.build)
		}
	}
	p.outP, p.outB = outP, outB
	if len(outP) == 0 {
		return nil, nil
	}
	return gatherPairs(outer, inner, outP, outB, !semiAnti), nil
}

// probeChunk walks the hash chains of the current probe batch until it has
// gathered joinChunk candidate pairs (or the batch ends) and resolves
// them, queueing and returning the output (nil when none). A chain walk
// interrupted by the chunk limit resumes on the next call.
func (j *HashJoin) probeChunk() (*vector.Batch, error) {
	semiAnti := j.Type == SemiJoin || j.Type == AntiJoin
	// Residual-free semi/anti joins are decided by the first key match.
	oneEnough := j.Residual == nil && semiAnti
	p := &j.pairs
	p.reset()
	n := j.probe.Len()
	for j.row < n && len(p.candP) < joinChunk {
		i := j.row
		if !j.inRow {
			j.inRow = true
			j.cur = -1
			if !nullKey(j.probeKeys, i) { // SQL semantics: NULL keys never match
				j.cur = j.table.first(j.hashes[i])
			}
		}
		for j.cur >= 0 && len(p.candP) < joinChunk {
			e := j.cur
			j.cur = j.table.next[e]
			if j.table.matches(e, j.hashes[i], j.probeKeys, i) {
				p.add(i, int(e))
				if oneEnough {
					j.cur = -1
				}
			}
		}
		if j.cur < 0 {
			p.end(i)
			j.row++
			j.inRow = false
		}
	}
	out, err := p.resolve(j.Type, j.Residual, j.probe, j.build.cols, j.matched)
	if err != nil {
		return nil, err
	}
	if semiAnti && j.inRow && p.rowHit {
		j.cur = -1 // the row in progress is decided: skip its other candidates
	}
	if out != nil {
		j.pending = append(j.pending, out)
	}
	return out, nil
}

// nullKey reports whether row i has a NULL in any of the key columns.
func nullKey(keys []*vector.Vector, i int) bool {
	for _, k := range keys {
		if k.NullAt(i) {
			return true
		}
	}
	return false
}

// gatherPairs builds a batch from outer's rows in probe and, with
// withInner set, the inner columns' rows in build (NULLs where build < 0).
func gatherPairs(outer *vector.Batch, inner []*vector.Vector, probe, build []int, withInner bool) *vector.Batch {
	cols := make([]*vector.Vector, 0, len(outer.Cols)+len(inner))
	for _, v := range outer.Cols {
		g := vector.New(v.Typ, len(probe))
		g.AppendFrom(v, probe)
		cols = append(cols, g)
	}
	if withInner {
		for _, v := range inner {
			cols = append(cols, gatherOrNull(v, build))
		}
	}
	return &vector.Batch{Cols: cols}
}

// gatherOrNull returns src's rows at idx, a NULL for each negative index.
func gatherOrNull(src *vector.Vector, idx []int) *vector.Vector {
	out := vector.New(src.Typ, len(idx))
	start := 0
	for k, r := range idx {
		if r < 0 {
			if k > start {
				out.AppendFrom(src, idx[start:k])
			}
			out.AppendNull()
			start = k + 1
		}
	}
	if start < len(idx) {
		out.AppendFrom(src, idx[start:])
	}
	return out
}

// emitUnmatchedInner queues the build rows no probe row matched, padded
// with NULL outer columns (right/full outer joins).
func (j *HashJoin) emitUnmatchedInner() {
	var rows []int
	for r, hit := range j.matched {
		if !hit {
			rows = append(rows, r)
		}
	}
	for lo := 0; lo < len(rows); lo += vector.DefaultBatchSize {
		sel := rows[lo:min(lo+vector.DefaultBatchSize, len(rows))]
		b := &vector.Batch{}
		for _, c := range j.outer.Schema().Cols {
			v := vector.New(c.Typ, len(sel))
			for range sel {
				v.AppendNull()
			}
			b.Cols = append(b.Cols, v)
		}
		for _, v := range j.build.cols {
			g := vector.New(v.Typ, len(sel))
			g.AppendFrom(v, sel)
			b.Cols = append(b.Cols, g)
		}
		j.pending = append(j.pending, b)
	}
}

// --- runtime switch to sort-merge ----------------------------------------

// switchToSortMerge abandons the hash table: both sides are externally
// sorted by their keys and joined by a MergeJoin over the sorted streams.
func (j *HashJoin) switchToSortMerge(ctx *Ctx, budget int64) error {
	if j.Type == RightOuterJoin || j.Type == FullOuterJoin {
		return fmt.Errorf("exec: %s hash join exceeded its memory budget and cannot switch to sort-merge", j.Type)
	}
	j.spilled = true
	ctx.Spills.Add(1)
	j.prof.Spills.Add(1)
	metrics.Spills.Inc()
	ctx.Trace.Event("JOIN_SPILLED", fmt.Sprintf("switched to sort-merge at budget=%d", budget))
	specsOf := func(keys []int) []SortSpec {
		out := make([]SortSpec, len(keys))
		for i, k := range keys {
			out[i] = SortSpec{Col: k}
		}
		return out
	}
	// The inner sorter takes over the hash table's rows and its (possibly
	// extended) budget — those bytes are granted to this query and free now
	// that the table is abandoned. The outer sorter starts fresh at the
	// operator budget and renegotiates on its own.
	innerS := newSorter(ctx, &j.prof, specsOf(j.InnerKeys), j.inner.Schema())
	innerS.budget = max(innerS.budget, budget)
	outerS := newSorter(ctx, &j.prof, specsOf(j.OuterKeys), j.outer.Schema())
	inner := &sortedInput{s: innerS, schema: j.inner.Schema()}
	outer := &sortedInput{s: outerS, schema: j.outer.Schema()}
	mj, err := NewMergeJoin(j.Type, outer, inner, j.OuterKeys, j.InnerKeys)
	if err != nil {
		return err
	}
	mj.Residual = j.Residual
	j.merge = mj // from here on Close removes the sorters' runs
	built := &vector.Batch{Cols: j.build.cols}
	j.build, j.table = nil, nil
	if err := innerS.add(built); err != nil {
		return err
	}
	for _, side := range []struct {
		op Operator
		s  *sorter
	}{{j.inner, innerS}, {j.outer, outerS}} {
		for {
			in, err := side.op.Next(ctx)
			if err != nil {
				return err
			}
			if in == nil {
				break
			}
			if err := side.s.add(in); err != nil {
				return err
			}
		}
		if err := side.s.finish(); err != nil {
			return err
		}
	}
	return mj.Open(ctx)
}
