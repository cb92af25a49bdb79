package encoding

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/types"
	"repro/internal/vector"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/encode_golden.txt from the current encoder")

const goldenPath = "testdata/encode_golden.txt"

// goldenCase is one block of the seeded golden corpus.
type goldenCase struct {
	name string
	v    *vector.Vector
}

// goldenCorpus builds the seeded blocks whose encodings the golden file
// pins: sorted and unsorted integers, timestamps with runs and breaks,
// floats, strings with empty values, NULL-bearing blocks, and the block
// lengths 1, 2, 4095 and 4096.
func goldenCorpus() []goldenCase {
	rng := rand.New(rand.NewSource(20120827))
	var out []goldenCase
	add := func(name string, v *vector.Vector) { out = append(out, goldenCase{name, v}) }
	ints := func(n int, f func(i int) int64) []int64 {
		s := make([]int64, n)
		for i := range s {
			s[i] = f(i)
		}
		return s
	}
	for _, n := range []int{1, 2, 4095, 4096} {
		add(fmt.Sprintf("int_sorted_%d", n), vector.NewFromInts(types.Int64, ints(n, func(i int) int64 { return int64(i)*3 + 1000 })))
		add(fmt.Sprintf("int_unsorted_%d", n), vector.NewFromInts(types.Int64, ints(n, func(int) int64 { return rng.Int63n(1 << 40) })))
		add(fmt.Sprintf("int_lowcard_%d", n), vector.NewFromInts(types.Int64, ints(n, func(int) int64 { return rng.Int63n(9) - 4 })))
		add(fmt.Sprintf("int_clustered_%d", n), vector.NewFromInts(types.Int64, ints(n, func(int) int64 { return 1_000_000 + rng.Int63n(200) })))
		add(fmt.Sprintf("int_runs_%d", n), vector.NewFromInts(types.Int64, ints(n, func(i int) int64 { return int64(i / 37) })))
		ts := int64(1_330_000_000_000_000)
		add(fmt.Sprintf("ts_periodic_%d", n), vector.NewFromInts(types.Timestamp, ints(n, func(i int) int64 {
			if rng.Intn(50) == 0 {
				ts += rng.Int63n(1 << 30) // an occasional break
			} else if rng.Intn(4) != 0 {
				ts += 60_000_000 // a run of equal timestamps otherwise
			}
			return ts
		})))
		add(fmt.Sprintf("bool_%d", n), vector.NewFromInts(types.Bool, ints(n, func(i int) int64 { return int64(i/100) & 1 })))
		fl := make([]float64, n)
		fs := make([]float64, n)
		fc := make([]float64, n)
		for i := range fl {
			fl[i] = rng.NormFloat64() * 1e3
			fs[i] = float64(i)*0.25 + 10
			fc[i] = float64(rng.Intn(6)) * 0.5
		}
		add(fmt.Sprintf("float_random_%d", n), vector.NewFromFloats(fl))
		add(fmt.Sprintf("float_sorted_%d", n), vector.NewFromFloats(fs))
		add(fmt.Sprintf("float_lowcard_%d", n), vector.NewFromFloats(fc))
		words := []string{"", "AIR", "MAIL", "RAIL", "SHIP", "TRUCK", "", "FOB", "REG AIR"}
		ss := make([]string, n)
		su := make([]string, n)
		for i := range ss {
			ss[i] = words[rng.Intn(len(words))]
			su[i] = fmt.Sprintf("k%06d", rng.Intn(1<<20))
		}
		add(fmt.Sprintf("varchar_lowcard_%d", n), vector.NewFromStrings(ss))
		add(fmt.Sprintf("varchar_unique_%d", n), vector.NewFromStrings(su))
	}
	// NULL-bearing blocks: the typed slot of a NULL holds the zero value.
	for _, n := range []int{2, 4096} {
		iv := vector.New(types.Int64, n)
		fv := vector.New(types.Float64, n)
		sv := vector.New(types.Varchar, n)
		for i := 0; i < n; i++ {
			if i%7 == 3 || i == 0 {
				iv.AppendNull()
				fv.AppendNull()
				sv.AppendNull()
				continue
			}
			iv.AppendValue(types.NewInt(int64(i / 5)))
			fv.AppendValue(types.NewFloat(float64(rng.Intn(40)) / 8))
			sv.AppendValue(types.NewString(fmt.Sprintf("s%d", rng.Intn(30))))
		}
		add(fmt.Sprintf("int_nulls_%d", n), iv)
		add(fmt.Sprintf("float_nulls_%d", n), fv)
		add(fmt.Sprintf("varchar_nulls_%d", n), sv)
	}
	// More distinct deltas than COMMONDELTA_COMP's dictionary holds.
	add("int_unsorted_5000", vector.NewFromInts(types.Int64, ints(5000, func(int) int64 { return rng.Int63n(1 << 40) })))
	allNull := vector.New(types.Int64, 64)
	for i := 0; i < 64; i++ {
		allNull.AppendNull()
	}
	add("int_allnull_64", allNull)
	return out
}

// goldenLines encodes every corpus block with every applicable kind and
// with Auto, one "case kind sha256" line each (Auto's line names the kind
// it resolved to).
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, c := range goldenCorpus() {
		for k := None; k <= CompressedCommonDelta; k++ {
			if !k.Applicable(c.v.Typ) {
				continue
			}
			enc, err := EncodeBlock(k, c.v)
			if err != nil {
				lines = append(lines, fmt.Sprintf("%s %s error", c.name, k))
				continue
			}
			sum := sha256.Sum256(enc)
			name := k.String()
			if k == Auto {
				name = "AUTO=" + Kind(enc[0]).String()
			}
			lines = append(lines, fmt.Sprintf("%s %s %s", c.name, name, hex.EncodeToString(sum[:])))
		}
	}
	return lines
}

// TestEncodeGolden pins the exact bytes EncodeBlock writes for every kind
// and the kind Auto chooses: encoder rewrites must keep containers
// byte-identical. Regenerate with `go test ./internal/encoding -run
// TestEncodeGolden -update` only for a deliberate format change.
func TestEncodeGolden(t *testing.T) {
	got := goldenLines(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if len(got) != len(want) {
		t.Fatalf("golden has %d lines, encoder produced %d", len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got  %s\n want %s", i+1, got[i], want[i])
		}
	}
}

// TestPayloadSizeIsExact holds the size-only chooser to the encoders: for
// every corpus block and kind, the computed size is the encoded length,
// and Auto's choice is the smallest trial encoding (first in candidate
// order on a tie).
func TestPayloadSizeIsExact(t *testing.T) {
	for _, c := range goldenCorpus() {
		trial := TrialSizes(c.v)
		for _, k := range candidateKinds(c.v.Typ) {
			size, ok := payloadSize(k, c.v, new(sortBufs))
			enc, err := EncodeBlock(k, c.v)
			if ok != (err == nil) {
				t.Fatalf("%s %s: sizer ok=%v, encoder err=%v", c.name, k, ok, err)
			}
			if ok && headerSize(c.v)+size != len(enc) {
				t.Fatalf("%s %s: sized %d bytes, encoded %d", c.name, k, headerSize(c.v)+size, len(enc))
			}
		}
		best, bestSize := None, -1
		for _, k := range candidateKinds(c.v.Typ) {
			if s, ok := trial[k]; ok && (bestSize < 0 || s < bestSize) {
				best, bestSize = k, s
			}
		}
		if got := Choose(c.v); got != best {
			t.Fatalf("%s: Choose = %s, smallest trial encoding is %s (%v)", c.name, got, best, trial)
		}
	}
}
