package exec

import (
	"fmt"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// Prepass computes partial aggregates close to the scan with a small,
// cache-sized hash table (paper §6.1): "it attempts to aggregate immediately
// after fetching columns off the disk using an L1 cache sized hash table.
// When the hash table fills up, the operator outputs its current contents,
// clears the hash table, and starts aggregating afresh ... Since there is
// still a small, but non-zero cost to run the prepass operator, the EE will
// decide at runtime to stop if it is not actually reducing the number of
// rows which pass."
//
// Output rows are key columns followed by each aggregate's partial columns;
// a final GroupBy in MergePartials mode combines them.
type Prepass struct {
	single
	Keys     []expr.Expr
	KeyNames []string
	Aggs     []AggSpec
	// MaxGroups bounds the hash table (the "L1 cache sized" table).
	MaxGroups int

	schema   *types.Schema
	keyTypes []types.Type
	st       *groupState
	inRows   int64
	outRows  int64
	bypassed bool
	pending  []*vector.Batch
	done     bool
	prof     OpProf
}

// DefaultPrepassGroups sizes the prepass table: 4096 groups keep a few
// int64 keys, their hashes and chains, and the accumulators within L2.
const DefaultPrepassGroups = 4096

// NewPrepass builds a prepass partial-aggregation node.
func NewPrepass(child Operator, keys []expr.Expr, keyNames []string, aggs []AggSpec) (*Prepass, error) {
	for i := range aggs {
		if !aggs[i].SupportsPartial() {
			return nil, fmt.Errorf("exec: %s cannot be computed by a prepass", aggs[i].String())
		}
	}
	p := &Prepass{
		single: single{child: child}, Keys: keys, KeyNames: keyNames,
		Aggs: aggs, MaxGroups: DefaultPrepassGroups,
	}
	cols := groupKeyCols(keys, keyNames)
	p.keyTypes = schemaTypes(types.NewSchema(cols...))
	for i := range aggs {
		cols = append(cols, aggs[i].PartialCols()...)
	}
	p.schema = types.NewSchema(cols...)
	return p, nil
}

// Schema implements Operator.
func (p *Prepass) Schema() *types.Schema { return p.schema }

// Describe implements Operator.
func (p *Prepass) Describe() string {
	return fmt.Sprintf("GroupByPrepass keys=%d aggs=[%s] maxGroups=%d", len(p.Keys), describeAggs(p.Aggs), p.MaxGroups)
}

// Open implements Operator.
func (p *Prepass) Open(ctx *Ctx) error {
	p.st = newGroupState(p.keyTypes, p.Aggs, true)
	p.inRows, p.outRows = 0, 0
	p.bypassed, p.done = false, false
	p.pending = nil
	return p.openChild(ctx)
}

// Close implements Operator.
func (p *Prepass) Close(ctx *Ctx) error {
	p.st, p.pending = nil, nil
	return p.closeChild(ctx)
}

// next is the operator body behind the profiled Next (profile.go).
func (p *Prepass) next(ctx *Ctx) (*vector.Batch, error) {
	for {
		if len(p.pending) > 0 {
			b := p.pending[0]
			p.pending = p.pending[1:]
			return b, nil
		}
		if p.done {
			return nil, nil
		}
		in, err := p.child.Next(ctx)
		if err != nil {
			return nil, err
		}
		if in == nil {
			p.done = true
			p.flushTable()
			continue
		}
		if err := p.consume(ctx, in); err != nil {
			return nil, err
		}
	}
}

func (p *Prepass) consume(ctx *Ctx, in *vector.Batch) error {
	n, keys, args, err := groupInputs(in, p.Keys, p.Aggs, false)
	if err != nil {
		return err
	}
	p.inRows += int64(n)
	if p.bypassed {
		// Not reducing rows: pass each row through as a trivial partial.
		p.emit(trivialPartials(n, keys, args, p.Aggs))
		return nil
	}
	for from := 0; from < n; {
		end := p.st.assign(n, keys, from, p.MaxGroups)
		p.st.fold(from, end, args, false)
		if end < n {
			p.flushTable() // the table is full: emit it and start afresh
		}
		from = end
	}
	// Adaptivity: if after a meaningful sample the prepass is reducing rows
	// by less than ~1.5x, its per-row cost is not paying off — stop
	// aggregating and pass rows through as trivial partials ("the EE will
	// decide at runtime to stop if it is not actually reducing the number
	// of rows which pass", §6.1).
	if p.inRows >= int64(p.MaxGroups)*4 && p.outRows*3 > p.inRows*2 {
		p.bypassed = true
		ctx.PrepassBypassed.Store(true)
		p.flushTable()
	}
	return nil
}

// trivialPartials converts n input rows to one partial row each, column
// at a time: every row is its own group.
func trivialPartials(n int, keys []*vector.Vector, args [][]*vector.Vector, aggs []AggSpec) *vector.Batch {
	out := &vector.Batch{Cols: append([]*vector.Vector(nil), keys...)}
	counts := func(arg *vector.Vector) *vector.Vector {
		c := make([]int64, n)
		for i := range c {
			if arg == nil || !arg.NullAt(i) {
				c[i] = 1
			}
		}
		return vector.NewFromInts(types.Int64, c)
	}
	for a := range aggs {
		var arg *vector.Vector
		if len(args[a]) > 0 {
			arg = args[a][0]
		}
		switch aggs[a].Kind {
		case AggCountStar, AggCount:
			out.Cols = append(out.Cols, counts(arg))
		case AggAvg:
			sum := arg
			if arg.Typ != types.Float64 {
				f := make([]float64, n)
				for i := range f {
					f[i] = float64(arg.Ints[i])
				}
				sum = &vector.Vector{Typ: types.Float64, Floats: f, Nulls: arg.Nulls}
			}
			out.Cols = append(out.Cols, sum, counts(arg))
		default: // SUM, MIN, MAX of one value is the value
			out.Cols = append(out.Cols, arg)
		}
	}
	return out
}

// flushTable emits the table's groups as partial rows and clears it.
func (p *Prepass) flushTable() {
	if p.st.n == 0 {
		return
	}
	p.emit(p.st.partialBatch())
	p.st.clear(p.keyTypes, p.Aggs, true)
}

// emit queues partial rows in batch-sized slices.
func (p *Prepass) emit(b *vector.Batch) {
	p.outRows += int64(b.Len())
	for pos := 0; ; {
		s := nextSlice(b, &pos)
		if s == nil {
			return
		}
		p.pending = append(p.pending, s)
	}
}
