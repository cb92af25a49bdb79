package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/types"
)

// writePathRows is one seeded load batch for TestWritePathsAgree: a
// unique id, a duplicated key, floats with -0.0 kept out, strings with
// empty values and NULLs in every nullable column.
func writePathRows(batch, n int) []types.Row {
	words := []string{"", "AIR", "MAIL", "RAIL", "SHIP"}
	rows := make([]types.Row, n)
	for i := range rows {
		id := int64(batch*n + i)
		h := (id * 2654435761) % 1000
		r := types.Row{
			types.NewInt(id*7919%100_003 + int64(batch)*100_003),
			types.NewInt(h % 13),
			types.NewFloat(float64(h%40) / 8),
			types.NewString(words[h%5]),
			types.NewTimestampMicros(1_330_000_000_000_000 + (h/10)*60_000_000),
		}
		if h%17 == 3 {
			r[2] = types.NewNull(types.Float64)
		}
		if h%19 == 4 {
			r[3] = types.NewNull(types.Varchar)
		}
		rows[i] = r
	}
	return rows
}

// containerFileHashes returns the sorted SHA-256 of every column data and
// position-index file under dir: the container bytes, independent of the
// container IDs that name their directories.
func containerFileHashes(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !(strings.HasSuffix(p, ".dat") || strings.HasSuffix(p, ".pidx")) {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(b)
		rel, _ := filepath.Rel(dir, p)
		// Keep the node, projection and file name; drop the container ID.
		parts := strings.Split(rel, string(filepath.Separator))
		out = append(out, parts[0]+"/"+parts[1]+"/"+parts[len(parts)-1]+" "+hex.EncodeToString(sum[:]))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// TestWritePathsAgree loads the same batches once straight to ROS and once
// through the WOS and moveout, running the tuple mover (and so mergeout)
// after every batch in both databases. The two must answer every scan
// identically, and where the sort key is unique they must also have
// written byte-identical containers.
func TestWritePathsAgree(t *testing.T) {
	open := func() *Database {
		db, err := Open(Options{Dir: t.TempDir(), Nodes: 2, K: 1})
		if err != nil {
			t.Fatal(err)
		}
		db.MustExecute(`CREATE TABLE wu (id INT, k INT, f FLOAT, s VARCHAR, ts TIMESTAMP) PARTITION BY k % 3`)
		db.MustExecute(`CREATE PROJECTION wu_p ON wu (id, k, f, s, ts) ORDER BY id SEGMENTED BY HASH(id)`)
		db.MustExecute(`CREATE TABLE wd (id INT, k INT, f FLOAT, s VARCHAR, ts TIMESTAMP)`)
		db.MustExecute(`CREATE PROJECTION wd_p ON wd (k, s, f, id, ts) ORDER BY k, s SEGMENTED BY HASH(k)`)
		return db
	}
	direct, viaWOS := open(), open()
	const batches, perBatch = 5, 2500
	for b := 0; b < batches; b++ {
		rows := writePathRows(b, perBatch)
		for _, table := range []string{"wu", "wd"} {
			if err := direct.Load(table, rows, true); err != nil {
				t.Fatal(err)
			}
			if err := viaWOS.Load(table, rows, false); err != nil {
				t.Fatal(err)
			}
		}
		if b == 2 {
			for _, db := range []*Database{direct, viaWOS} {
				db.MustExecute(`DELETE FROM wu WHERE k = 5`)
				db.MustExecute(`DELETE FROM wd WHERE k = 6`)
			}
		}
		for _, db := range []*Database{direct, viaWOS} {
			if _, _, err := db.RunTupleMover(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, q := range []string{
		`SELECT id, k, f, s, ts FROM wu ORDER BY id`,
		`SELECT id, k, f, s, ts FROM wd ORDER BY id`,
		`SELECT k, COUNT(*) AS n, SUM(f) AS sf, MIN(s) AS ms FROM wd GROUP BY k ORDER BY k`,
	} {
		a, b := direct.MustExecute(q).Rows, viaWOS.MustExecute(q).Rows
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: direct load and WOS+moveout disagree (%d vs %d rows)", q, len(a), len(b))
		}
		if len(a) == 0 {
			t.Fatalf("%s: no rows", q)
		}
	}
	if n := direct.MustExecute(`SELECT COUNT(*) AS n FROM wu`).Rows[0][0].I; n == batches*perBatch || n == 0 {
		t.Fatalf("wu holds %d rows; the DELETE should have removed some", n)
	}
	hashes := func(db *Database) []string {
		var out []string
		for _, h := range containerFileHashes(t, db.opts.Dir) {
			if strings.Contains(h, "/wu_p") {
				out = append(out, h)
			}
		}
		return out
	}
	hd, hw := hashes(direct), hashes(viaWOS)
	if len(hd) == 0 {
		t.Fatal("no containers found for wu_p")
	}
	if !reflect.DeepEqual(hd, hw) {
		t.Fatalf("unique-sort-key containers differ between direct load and WOS+moveout:\n direct %v\n wos    %v", hd, hw)
	}
}

// TestMoverKeepsNegativeZero: moveout encodes -0.0 distinctly from 0.0
// (RLE runs and BLOCK_DICT entries key floats by their bits), so a row
// stored as -0.0 reads back as -0.0 after the tuple mover has run.
func TestMoverKeepsNegativeZero(t *testing.T) {
	db := openTestDB(t, 1, 0)
	db.MustExecute(`CREATE TABLE f (id INT, x FLOAT)`)
	db.MustExecute(`CREATE PROJECTION f_p ON f (id, x) ORDER BY id SEGMENTED BY HASH(id)`)
	cycle := []float64{0, math.Copysign(0, -1), 2.5, 7.25}
	rows := make([]types.Row, 400)
	for i := range rows {
		rows[i] = types.Row{types.NewInt(int64(i)), types.NewFloat(cycle[i%len(cycle)])}
	}
	if err := db.Load("f", rows, false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := db.RunTupleMover(); err != nil {
		t.Fatal(err)
	}
	for id, want := range cycle {
		res := db.MustExecute(fmt.Sprintf(`SELECT x FROM f WHERE id = %d`, id))
		if len(res.Rows) != 1 {
			t.Fatalf("id %d: %d rows", id, len(res.Rows))
		}
		if got := res.Rows[0][0].F; math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("id %d: x = %v, want %v", id, got, want)
		}
	}
}
