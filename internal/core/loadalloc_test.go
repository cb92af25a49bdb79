//go:build !race

// The race detector changes allocation behaviour, so this gate runs only
// in ordinary builds (CI runs it with the operator allocation gates).

package core

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/types"
)

// TestLoadAllocBudget gates the columnar write path's allocation per
// loaded row: a direct load of 400k rows into a segmented projection
// sorted on a scrambled key turns the rows into columns once, routes,
// places and sorts them as columns, and encodes each block once. Measured
// on a 2-CPU x86-64 container: 0.020 allocs/row and 196 B/row; the
// row-at-a-time path this replaced (per-row routing, Clone and epoch
// append, reflection sort, trial encoding of every candidate) took 6.1
// allocs/row and 2890 B/row.
func TestLoadAllocBudget(t *testing.T) {
	const (
		n            = 400_000
		allocsPerRow = 0.1
		bytesPerRow  = 300
	)
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE la (id INT, k INT, f FLOAT, s VARCHAR)`)
	db.MustExecute(`CREATE PROJECTION la_p ON la (id, k, f, s) ORDER BY id SEGMENTED BY HASH(id)`)
	words := make([]string, 50)
	for i := range words {
		words[i] = fmt.Sprintf("w%03d", i)
	}
	rows := make([]types.Row, n)
	for i := range rows {
		rows[i] = types.Row{
			types.NewInt(int64(i*7919) % n),
			types.NewInt(int64(i % 97)),
			types.NewFloat(float64(i%1000) / 8),
			types.NewString(words[i%len(words)]),
		}
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	if err := db.Load("la", rows, true); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	allocs := float64(m1.Mallocs-m0.Mallocs) / n
	bytes := float64(m1.TotalAlloc-m0.TotalAlloc) / n
	t.Logf("direct load: %.3f allocs/row, %.1f B/row", allocs, bytes)
	if allocs > allocsPerRow {
		t.Errorf("%.3f allocs/row, budget %.2f", allocs, allocsPerRow)
	}
	if bytes > bytesPerRow {
		t.Errorf("%.1f B/row, budget %d", bytes, bytesPerRow)
	}
	if got := db.MustExecute(`SELECT COUNT(*) AS c FROM la`).Rows[0][0].I; got != n {
		t.Fatalf("loaded %d rows, want %d", got, n)
	}
}
