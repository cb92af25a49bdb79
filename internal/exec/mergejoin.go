package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// MergeJoin joins two inputs already sorted by their join keys (paper §6.1:
// Vertica chooses merge join when projections' sort orders line up with the
// join keys; the Send/Recv operators even retain sortedness to keep this
// possible after an exchange). Supports INNER, LEFT OUTER, SEMI and ANTI;
// the optimizer plans the other flavors as hash joins.
//
// It walks the outer batch row by row against a buffered group of inner
// rows with the current key (a column buffer), records candidate pairs
// like the hash join, and resolves and gathers them column-wise
// (joinPairs) whenever the group is about to change.
type MergeJoin struct {
	Type      JoinType
	outer     Operator
	inner     Operator
	OuterKeys []int
	InnerKeys []int
	Residual  expr.Expr

	schema *types.Schema

	ob        *vector.Batch // current outer batch
	ib        *vector.Batch // current inner batch
	irow      int           // next unread inner row
	innerDone bool
	group     *colBuf // the inner rows whose key matches the current outer key
	pairs     joinPairs
	pending   []*vector.Batch
	prof      OpProf
}

// NewMergeJoin builds a merge join over key-sorted inputs.
func NewMergeJoin(t JoinType, outer, inner Operator, outerKeys, innerKeys []int) (*MergeJoin, error) {
	switch t {
	case InnerJoin, LeftOuterJoin, SemiJoin, AntiJoin:
	default:
		return nil, fmt.Errorf("exec: merge join does not support %s", t)
	}
	if len(outerKeys) != len(innerKeys) || len(outerKeys) == 0 {
		return nil, fmt.Errorf("exec: join requires aligned, non-empty key lists")
	}
	return &MergeJoin{
		Type: t, outer: outer, inner: inner,
		OuterKeys: outerKeys, InnerKeys: innerKeys,
		schema: joinSchema(t, outer.Schema(), inner.Schema()),
	}, nil
}

// Schema implements Operator.
func (j *MergeJoin) Schema() *types.Schema { return j.schema }

// Children implements the plan walker.
func (j *MergeJoin) Children() []Operator { return []Operator{j.outer, j.inner} }

// Describe implements Operator.
func (j *MergeJoin) Describe() string {
	return fmt.Sprintf("MergeJoin %s outerKeys=%v innerKeys=%v", j.Type, j.OuterKeys, j.InnerKeys)
}

// Open implements Operator.
func (j *MergeJoin) Open(ctx *Ctx) error {
	j.ob, j.ib, j.irow, j.innerDone = nil, nil, 0, false
	j.group = newColBuf(schemaTypes(j.inner.Schema()))
	j.pairs = joinPairs{}
	j.pending = nil
	if err := j.outer.Open(ctx); err != nil {
		return err
	}
	return j.inner.Open(ctx)
}

// Close implements Operator.
func (j *MergeJoin) Close(ctx *Ctx) error {
	j.ob, j.ib, j.group, j.pending = nil, nil, nil, nil
	if err := j.outer.Close(ctx); err != nil {
		j.inner.Close(ctx)
		return err
	}
	return j.inner.Close(ctx)
}

// flat returns b with RLE columns expanded and any selection applied.
func flat(b *vector.Batch) *vector.Batch {
	if b.Sel != nil {
		return b.Flatten()
	}
	b.ExpandRLE()
	return b
}

// next is the operator body behind the profiled Next (profile.go).
func (j *MergeJoin) next(ctx *Ctx) (*vector.Batch, error) {
	for len(j.pending) == 0 {
		b, err := j.outer.Next(ctx)
		if err != nil || b == nil {
			return nil, err
		}
		if err := j.joinBatch(ctx, flat(b)); err != nil {
			return nil, err
		}
	}
	b := j.pending[0]
	j.pending = j.pending[1:]
	return b, nil
}

// joinBatch joins one outer batch against the inner stream.
func (j *MergeJoin) joinBatch(ctx *Ctx, ob *vector.Batch) error {
	j.ob = ob
	keys := make([]*vector.Vector, len(j.OuterKeys))
	for k, c := range j.OuterKeys {
		keys[k] = ob.Cols[c]
	}
	// Residual-free semi/anti joins are decided by any key-equal row.
	oneEnough := j.Residual == nil && (j.Type == SemiJoin || j.Type == AntiJoin)
	j.pairs.reset()
	for i := 0; i < ob.Len(); i++ {
		if !nullKey(keys, i) { // SQL semantics: NULL keys never match
			if j.group.len() == 0 || j.compareGroup(keys, i) != 0 {
				if len(j.pairs.candP) > 0 { // candidates still point into the group
					if err := j.flush(); err != nil {
						return err
					}
				}
				if err := j.loadGroup(ctx, keys, i); err != nil {
					return err
				}
			}
			for g := 0; g < j.group.len(); g++ {
				j.pairs.add(i, g)
				if oneEnough {
					break
				}
			}
		}
		j.pairs.end(i)
		if len(j.pairs.candP) >= joinChunk {
			if err := j.flush(); err != nil {
				return err
			}
		}
	}
	return j.flush()
}

// flush resolves the recorded pairs against the current group.
func (j *MergeJoin) flush() error {
	out, err := j.pairs.resolve(j.Type, j.Residual, j.ob, j.group.cols, nil)
	j.pairs.reset()
	if out != nil {
		j.pending = append(j.pending, out)
	}
	return err
}

// compareGroup orders the group's key against outer row i's key.
func (j *MergeJoin) compareGroup(keys []*vector.Vector, i int) int {
	for k, c := range j.InnerKeys {
		if r := keyCompare(j.group.cols[c], 0, keys[k], i); r != 0 {
			return r
		}
	}
	return 0
}

// loadGroup replaces the group with the inner rows whose key equals outer
// row i's, skipping smaller inner keys (NULL keys sort first and never
// match).
func (j *MergeJoin) loadGroup(ctx *Ctx, keys []*vector.Vector, i int) error {
	j.group.reset()
	var one [1]int
	for {
		if j.ib == nil || j.irow >= j.ib.Len() {
			if j.innerDone {
				return nil
			}
			b, err := j.inner.Next(ctx)
			if err != nil {
				return err
			}
			if b == nil {
				j.innerDone = true
				return nil
			}
			j.ib, j.irow = flat(b), 0
			continue
		}
		c := 0
		for k, col := range j.InnerKeys {
			if c = keyCompare(j.ib.Cols[col], j.irow, keys[k], i); c != 0 {
				break
			}
		}
		if c > 0 {
			return nil
		}
		if c == 0 {
			one[0] = j.irow
			j.group.appendCols(j.ib.Cols, one[:])
		}
		j.irow++
	}
}

// keyCompare orders entry i of a against entry j of b, join keys of
// possibly different numeric types.
func keyCompare(a *vector.Vector, i int, b *vector.Vector, j int) int {
	if a.Typ == b.Typ || (intClass(a.Typ) && intClass(b.Typ)) {
		return vector.CompareAt(a, i, b, j)
	}
	return a.ValueAt(i).Compare(b.ValueAt(j))
}
