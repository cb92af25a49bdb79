package exec

import (
	"fmt"
	"sort"

	"repro/internal/types"
	"repro/internal/vector"
)

// AnalyticKind identifies a windowed (SQL-99 analytic) function
// (paper §6.1 operator 6).
type AnalyticKind uint8

// Analytic functions.
const (
	AnRowNumber AnalyticKind = iota
	AnRank
	AnDenseRank
	AnSum
	AnAvg
	AnCount
	AnMin
	AnMax
	AnLag
	AnLead
)

func (k AnalyticKind) String() string {
	switch k {
	case AnRowNumber:
		return "ROW_NUMBER"
	case AnRank:
		return "RANK"
	case AnDenseRank:
		return "DENSE_RANK"
	case AnSum:
		return "SUM"
	case AnAvg:
		return "AVG"
	case AnCount:
		return "COUNT"
	case AnMin:
		return "MIN"
	case AnMax:
		return "MAX"
	case AnLag:
		return "LAG"
	case AnLead:
		return "LEAD"
	default:
		return fmt.Sprintf("ANALYTIC(%d)", k)
	}
}

// AnalyticSpec is one windowed computation: fn(ArgCol) OVER (PARTITION BY
// PartitionCols ORDER BY OrderBy). With an ORDER BY, aggregates are running
// (rows unbounded preceding .. current row); without, they span the whole
// partition.
type AnalyticSpec struct {
	Kind          AnalyticKind
	ArgCol        int // -1 when no argument (ROW_NUMBER, RANK, COUNT(*))
	PartitionCols []int
	OrderBy       []SortSpec
	Name          string
	Offset        int // LAG/LEAD distance (default 1)
}

// ResultType returns the analytic output type given the input schema.
func (a *AnalyticSpec) ResultType(in *types.Schema) types.Type {
	switch a.Kind {
	case AnRowNumber, AnRank, AnDenseRank, AnCount:
		return types.Int64
	case AnAvg:
		return types.Float64
	default:
		return in.Col(a.ArgCol).Typ
	}
}

// Analytic computes windowed aggregates. It materializes its input, sorts by
// (partition, order) and appends one column per spec.
type Analytic struct {
	single
	Specs []AnalyticSpec

	schema *types.Schema
	out    []types.Row
	pos    int
	done   bool
	prof   OpProf
}

// NewAnalytic builds an analytic node. All specs must share PartitionCols
// and OrderBy (the planner splits differing windows into separate nodes).
func NewAnalytic(child Operator, specs []AnalyticSpec) (*Analytic, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("exec: analytic requires at least one spec")
	}
	in := child.Schema()
	cols := append([]types.Column{}, in.Cols...)
	for i := range specs {
		name := specs[i].Name
		if name == "" {
			name = specs[i].Kind.String()
		}
		cols = append(cols, types.Column{Name: name, Typ: specs[i].ResultType(in), Nullable: true})
	}
	return &Analytic{single: single{child: child}, Specs: specs, schema: types.NewSchema(cols...)}, nil
}

// Schema implements Operator.
func (a *Analytic) Schema() *types.Schema { return a.schema }

// Describe implements Operator.
func (a *Analytic) Describe() string {
	parts := make([]string, len(a.Specs))
	for i := range a.Specs {
		parts[i] = a.Specs[i].Kind.String()
	}
	return fmt.Sprintf("Analytic %v partition=%v", parts, a.Specs[0].PartitionCols)
}

// Open implements Operator.
func (a *Analytic) Open(ctx *Ctx) error {
	a.out, a.pos, a.done = nil, 0, false
	return a.openChild(ctx)
}

// Close implements Operator.
func (a *Analytic) Close(ctx *Ctx) error { return a.closeChild(ctx) }

// next is the operator body behind the profiled Next (profile.go).
func (a *Analytic) next(ctx *Ctx) (*vector.Batch, error) {
	if !a.done {
		if err := a.compute(ctx); err != nil {
			return nil, err
		}
		a.done = true
	}
	if a.pos >= len(a.out) {
		return nil, nil
	}
	batch := vector.NewBatchForSchema(a.schema, vector.DefaultBatchSize)
	for a.pos < len(a.out) && batch.Len() < vector.DefaultBatchSize {
		batch.AppendRow(a.out[a.pos])
		a.pos++
	}
	return batch, nil
}

func (a *Analytic) compute(ctx *Ctx) error {
	var rows []types.Row
	for {
		b, err := a.child.Next(ctx)
		if err != nil {
			return err
		}
		if b == nil {
			break
		}
		rows = append(rows, b.Rows()...)
	}
	spec0 := a.Specs[0]
	// Sort by partition columns then window order.
	sortSpecs := make([]SortSpec, 0, len(spec0.PartitionCols)+len(spec0.OrderBy))
	for _, p := range spec0.PartitionCols {
		sortSpecs = append(sortSpecs, SortSpec{Col: p})
	}
	sortSpecs = append(sortSpecs, spec0.OrderBy...)
	sort.SliceStable(rows, func(i, j int) bool {
		return compareRows(rows[i], rows[j], sortSpecs) < 0
	})
	// Process per partition.
	start := 0
	for start < len(rows) {
		end := start + 1
		for end < len(rows) && samePartition(rows[start], rows[end], spec0.PartitionCols) {
			end++
		}
		if err := a.computePartition(rows[start:end]); err != nil {
			return err
		}
		start = end
	}
	a.out = rows
	return nil
}

func samePartition(a, b types.Row, cols []int) bool {
	for _, c := range cols {
		if a[c].Compare(b[c]) != 0 {
			return false
		}
	}
	return true
}

// computePartition appends analytic values to each row of one partition
// (rows are already window-ordered).
func (a *Analytic) computePartition(part []types.Row) error {
	for si := range a.Specs {
		spec := &a.Specs[si]
		switch spec.Kind {
		case AnRowNumber:
			for i := range part {
				part[i] = append(part[i], types.NewInt(int64(i+1)))
			}
		case AnRank, AnDenseRank:
			rank, dense := int64(1), int64(1)
			for i := range part {
				if i > 0 && compareRows(part[i-1], part[i], spec.OrderBy) != 0 {
					rank = int64(i + 1)
					dense++
				}
				if spec.Kind == AnRank {
					part[i] = append(part[i], types.NewInt(rank))
				} else {
					part[i] = append(part[i], types.NewInt(dense))
				}
			}
		case AnLag, AnLead:
			off := spec.Offset
			if off == 0 {
				off = 1
			}
			typ := a.schema.Col(len(part[0])).Typ
			for i := range part {
				src := i - off
				if spec.Kind == AnLead {
					src = i + off
				}
				if src < 0 || src >= len(part) {
					part[i] = append(part[i], types.NewNull(typ))
				} else {
					part[i] = append(part[i], part[src][spec.ArgCol])
				}
			}
		default:
			if err := a.runningAgg(part, spec); err != nil {
				return err
			}
		}
	}
	return nil
}

func (a *Analytic) runningAgg(part []types.Row, spec *AnalyticSpec) error {
	kindMap := map[AnalyticKind]AggKind{
		AnSum: AggSum, AnAvg: AggAvg, AnCount: AggCount, AnMin: AggMin, AnMax: AggMax,
	}
	aggKind, ok := kindMap[spec.Kind]
	if !ok {
		return fmt.Errorf("exec: unsupported analytic %s", spec.Kind)
	}
	argType := types.Int64
	var args []*vector.Vector
	if spec.ArgCol >= 0 {
		argType = part[0][spec.ArgCol].Typ
		if argType == types.Invalid {
			argType = a.child.Schema().Col(spec.ArgCol).Typ
		}
		arg := vector.New(argType, len(part))
		for _, r := range part {
			arg.AppendValue(r[spec.ArgCol])
		}
		args = []*vector.Vector{arg}
	}
	// One group (id 0) accumulates the frame; its result is read after
	// each step.
	acc := newAggColOf(aggKind, argType)
	acc.grow(1)
	ids := make([]int32, len(part))
	fold := func(lo, hi int) types.Value {
		acc.fold(ids, lo, hi, args, false)
		return acc.final(0, 1).ValueAt(0)
	}
	if len(spec.OrderBy) == 0 {
		// Whole-partition aggregate: one value for every row.
		v := fold(0, len(part))
		for i := range part {
			part[i] = append(part[i], v)
		}
		return nil
	}
	// Running aggregate with peer-row semantics: rows tied in the window
	// order share the frame end (RANGE UNBOUNDED PRECEDING .. CURRENT ROW).
	i := 0
	for i < len(part) {
		j := i + 1
		for j < len(part) && compareRows(part[i], part[j], spec.OrderBy) == 0 {
			j++
		}
		v := fold(i, j)
		for k := i; k < j; k++ {
			part[k] = append(part[k], v)
		}
		i = j
	}
	return nil
}
