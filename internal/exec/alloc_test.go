//go:build !race

// The race detector changes allocation behaviour, so these gates run only
// in ordinary builds (CI runs them as their own step).

package exec

import (
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/expr"
	"repro/internal/types"
	"repro/internal/vector"
)

// replaySource replays prebuilt batches without allocating, so allocation
// and heap measurements see only the operator above it.
type replaySource struct {
	schema  *types.Schema
	batches []*vector.Batch
	pos     int
}

func (s *replaySource) Schema() *types.Schema { return s.schema }
func (s *replaySource) Open(*Ctx) error       { s.pos = 0; return nil }
func (s *replaySource) Close(*Ctx) error      { return nil }
func (s *replaySource) Describe() string      { return "replaySource" }
func (s *replaySource) Next(*Ctx) (*vector.Batch, error) {
	if s.pos >= len(s.batches) {
		return nil, nil
	}
	s.pos++
	return s.batches[s.pos-1], nil
}

// toBatches cuts typed columns into DefaultBatchSize batches.
func toBatches(cols ...*vector.Vector) []*vector.Batch {
	whole := vector.NewBatch(cols...)
	var out []*vector.Batch
	for lo := 0; lo < whole.Len(); lo += vector.DefaultBatchSize {
		out = append(out, whole.SliceRows(lo, min(lo+vector.DefaultBatchSize, whole.Len())))
	}
	return out
}

// factSource is n rows of (k, grp, dk, v), shaped like the report
// workload's psales: grp visits every one of groups values n/groups times
// in a scrambled order, dk is uniform over [0, dim), v a random float.
func factSource(n, groups, dim int) *replaySource {
	rng := rand.New(rand.NewSource(1))
	k, grp, dk := make([]int64, n), make([]int64, n), make([]int64, n)
	v := make([]float64, n)
	for i := range k {
		k[i] = int64(i)
		grp[i] = int64(i*7919) % int64(groups)
		dk[i] = int64(rng.Intn(dim))
		v[i] = float64(rng.Intn(9973)) + 0.5
	}
	return &replaySource{
		schema: types.NewSchema(
			types.Column{Name: "k", Typ: types.Int64}, types.Column{Name: "grp", Typ: types.Int64},
			types.Column{Name: "dk", Typ: types.Int64}, types.Column{Name: "v", Typ: types.Float64}),
		batches: toBatches(vector.NewFromInts(types.Int64, k), vector.NewFromInts(types.Int64, grp),
			vector.NewFromInts(types.Int64, dk), vector.NewFromFloats(v)),
	}
}

// dimSource is n rows of (id, w) with unique ids 0..n-1.
func dimSource(n int) *replaySource {
	id, w := make([]int64, n), make([]float64, n)
	for i := range id {
		id[i] = int64(i)
		w[i] = float64(i) * 0.25
	}
	return &replaySource{
		schema:  types.NewSchema(types.Column{Name: "id", Typ: types.Int64}, types.Column{Name: "w", Typ: types.Float64}),
		batches: toBatches(vector.NewFromInts(types.Int64, id), vector.NewFromFloats(w)),
	}
}

// hotOperator is one of the report workload's heavy operators over
// generated input of the given size.
type hotOperator struct {
	name    string
	op      Operator
	inRows  int // rows the operator consumes
	outRows int // rows it must produce
}

func hotOperators(rows int) []hotOperator {
	groups, dim := rows/4, rows/2
	gb := NewGroupBy(factSource(rows, groups, dim), []expr.Expr{intCol(1, "grp")}, []string{"grp"},
		[]AggSpec{{Kind: AggCountStar, Name: "n"}, {Kind: AggSum, Arg: fltCol(3, "v"), Name: "s"}})
	hj, _ := NewHashJoin(InnerJoin, factSource(rows, groups, dim), dimSource(dim), []int{2}, []int{0})
	st := NewSort(factSource(rows, groups, dim), []SortSpec{{Col: 3}})
	return []hotOperator{
		{"GroupBy", gb, rows, groups},
		{"HashJoin", hj, rows + dim, rows},
		{"Sort", st, rows, rows},
	}
}

// drainCount runs op to completion, counting output rows.
func drainCount(t *testing.T, ctx *Ctx, op Operator) int {
	t.Helper()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	n := 0
	for {
		b, err := op.Next(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		n += b.Len()
	}
	if err := op.Close(ctx); err != nil {
		t.Fatal(err)
	}
	return n
}

// TestOperatorAllocBudget gates the serial hot operators' allocation per
// input row at the report workload's sizes: GroupBy over 400k rows into
// 100k groups, HashJoin of 400k probe rows against 200k build rows, Sort
// of 400k rows. Columnar state allocates per batch and per table growth,
// never per row or per group.
func TestOperatorAllocBudget(t *testing.T) {
	const (
		allocsPerRow = 0.05
		bytesPerRow  = 150 // measured: GroupBy 55, HashJoin 99, Sort 80
	)
	for _, h := range hotOperators(400_000) {
		ctx := NewCtx(0)
		if got := drainCount(t, ctx, h.op); got != h.outRows { // also warms up
			t.Fatalf("%s produced %d rows, want %d", h.name, got, h.outRows)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		drainCount(t, ctx, h.op)
		runtime.ReadMemStats(&m1)
		allocs := float64(m1.Mallocs-m0.Mallocs) / float64(h.inRows)
		bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(h.inRows)
		t.Logf("%s: %.4f allocs/row, %.1f B/row", h.name, allocs, bytes)
		if allocs > allocsPerRow {
			t.Errorf("%s: %.4f allocs/row, budget %.2f", h.name, allocs, allocsPerRow)
		}
		if bytes > bytesPerRow {
			t.Errorf("%s: %.1f B/row, budget %d", h.name, bytes, bytesPerRow)
		}
	}
}

// TestOperatorMemoryAccounting checks that what the operators charge to
// the memory budget covers what they hold. Each operator consumes 100k
// rows and returns its first batch; the live heap it added must not exceed
// its reported high-water mark. The GC is off during each run and a forced
// collection before each reading leaves only live bytes. Allocations by
// the runtime and the test harness can land in the window and only add to
// a reading: the smallest of three runs is compared, with a fixed
// allowance for them (up to about 40 KB has been seen, whatever the input
// size; the operators hold megabytes).
func TestOperatorMemoryAccounting(t *testing.T) {
	const harness = 64 << 10
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, h := range hotOperators(100_000) {
		live := int64(math.MaxInt64)
		var accounted int64
		for range 3 {
			ctx := NewCtx(0)
			var m0, m1 runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&m0)
			if err := h.op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			first, err := h.op.Next(ctx)
			if err != nil || first == nil {
				t.Fatalf("%s: first batch %v, %v", h.name, first, err)
			}
			runtime.GC()
			runtime.ReadMemStats(&m1)
			live = min(live, int64(m1.HeapAlloc)-int64(m0.HeapAlloc))
			accounted = h.op.(Profiled).Prof().AllocPeak.Load()
			runtime.KeepAlive(first)
			h.op.Close(ctx)
		}
		t.Logf("%s: accounted %d B, live %d B", h.name, accounted, live)
		if accounted+harness < live {
			t.Errorf("%s: accounted %d B < %d B live", h.name, accounted, live)
		}
	}
}
