package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/types"
)

// referenceBuild is Build with the sample ordered by the reflection-based
// stable sort over types.Value.Compare: the order the histogram was
// defined against. Build's own sort must reproduce it exactly, including
// which of several Compare-equal values (-0.0 and 0.0) lands last in a run
// and so becomes a bucket's upper bound.
func referenceBuild(b *Builder, buckets int) *ColumnStats {
	if buckets <= 0 {
		buckets = DefaultBuckets
	}
	if buckets > MaxBuckets {
		buckets = MaxBuckets
	}
	cs := &ColumnStats{
		Column: b.column, RowCount: b.rows, NullCount: b.nulls,
		Min: b.min, Max: b.max, NDV: b.sketch.estimate(),
	}
	if nn := cs.NonNull(); cs.NDV > nn {
		cs.NDV = nn
	}
	if len(b.sample) > 0 {
		sorted := append([]types.Value{}, b.sample...)
		sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Compare(sorted[j]) < 0 })
		cs.Hist = buildHistogram(sorted, buckets, cs.NonNull())
	}
	return cs
}

func TestBuildMatchesStableSortReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	words := []string{"", "a", "ab", "b", "ba", "zz", "REG AIR", "MAIL"}
	cases := []struct {
		typ types.Type
		n   int
		gen func(i int) types.Value
	}{
		{types.Int64, 5000, func(int) types.Value { return types.NewInt(rng.Int63n(300) - 150) }},
		{types.Int64, sampleCap + 9000, func(i int) types.Value { return types.NewInt(int64(i*7919) % 100_003) }},
		{types.Timestamp, 3000, func(i int) types.Value { return types.NewTimestampMicros(int64(i/10) * 1e6) }},
		{types.Bool, 999, func(int) types.Value { return types.NewBool(rng.Intn(3) == 0) }},
		{types.Float64, 6000, func(int) types.Value {
			switch rng.Intn(5) {
			case 0:
				return types.NewFloat(math.Copysign(0, -1))
			case 1:
				return types.NewFloat(0)
			}
			return types.NewFloat(float64(rng.Intn(50)) / 4)
		}},
		{types.Float64, sampleCap + 100, func(int) types.Value { return types.NewFloat(rng.NormFloat64()) }},
		{types.Varchar, 4000, func(int) types.Value { return types.NewString(words[rng.Intn(len(words))]) }},
		{types.Varchar, 2000, func(int) types.Value { return types.NewString(fmt.Sprintf("k%05d", rng.Intn(1500))) }},
	}
	for _, c := range cases {
		for _, buckets := range []int{1, 7, DefaultBuckets} {
			b := NewBuilder("c", c.typ)
			for i := 0; i < c.n; i++ {
				if i%97 == 5 {
					b.Add(types.NewNull(c.typ))
					continue
				}
				b.Add(c.gen(i))
			}
			want := referenceBuild(b, buckets)
			got := b.Build(buckets)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s n=%d buckets=%d: Build differs from the stable-sort reference\n got  %v\n want %v",
					c.typ, c.n, buckets, got.Hist, want.Hist)
			}
			if c.typ == types.Float64 {
				for i, bk := range got.Hist.Buckets {
					wb := want.Hist.Buckets[i]
					if math.Signbit(bk.Upper.F) != math.Signbit(wb.Upper.F) {
						t.Fatalf("bucket %d upper sign: got %v want %v", i, bk.Upper.F, wb.Upper.F)
					}
				}
			}
		}
	}
}
