package sql

import (
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/types"
)

func TestFingerprintNormalizesLiterals(t *testing.T) {
	q := func(lo, name string) string {
		return `EXPLAIN SELECT DISTINCT t.a, COUNT(DISTINCT b) AS n, SUM(c * 2) AS s,
			CASE WHEN a > ` + lo + ` THEN 'hi' ELSE 'lo' END AS k, -a AS neg, ABS(c) AS ab
			FROM t LEFT JOIN u x ON t.a = x.a AND x.b <> 3
			WHERE a > ` + lo + ` AND NOT (b IS NULL) AND c IN (1, 2, 3) AND d = '` + name + `' AND e IS NOT NULL OR f < $1
			GROUP BY t.a, b HAVING COUNT(*) > 1 ORDER BY 1 DESC, n LIMIT 5 OFFSET 2`
	}
	s1, s2 := parseSelect(t, q("10", "x")), parseSelect(t, q("20", "y"))
	f1, lits1 := Fingerprint(s1)
	f2, lits2 := Fingerprint(s2)
	if f1 != f2 {
		t.Fatalf("fingerprints differ:\n%s\n%s", f1, f2)
	}
	for _, want := range []string{"EXPLAIN SELECT DISTINCT", "LEFT JOIN u x ON", "GROUP BY", "HAVING", "ORDER BY", "DESC", "LIMIT 5", "OFFSET 2"} {
		if !strings.Contains(f1, want) {
			t.Errorf("fingerprint %q lacks %q", f1, want)
		}
	}
	if strings.Contains(f1, "10") || strings.Contains(f1, "'x'") {
		t.Errorf("literal leaked into fingerprint: %s", f1)
	}
	if len(lits1) != len(lits2) || len(lits1) < 6 {
		t.Fatalf("literals: %v vs %v", lits1, lits2)
	}
	if LiteralsEqual(lits1, lits2) {
		t.Error("different literal values compare equal")
	}
	if !LiteralsEqual(lits1, lits1) || LiteralsEqual(lits1, lits1[1:]) {
		t.Error("LiteralsEqual: reflexivity or length check broken")
	}
	pf, _ := Fingerprint(parseSelect(t, `PROFILE SELECT * FROM t`))
	if !strings.HasPrefix(pf, "PROFILE SELECT *") {
		t.Errorf("profile fingerprint = %q", pf)
	}
	cf, _ := Fingerprint(parseSelect(t, `SELECT a FROM t, u WHERE t.a = u.a`))
	if !strings.Contains(cf, "INNER JOIN u") {
		t.Errorf("comma join fingerprint = %q", cf)
	}
}

func TestParamsCountAndSubstitute(t *testing.T) {
	for _, c := range []struct {
		src  string
		want int
	}{
		{`SELECT a FROM t WHERE a = $1 AND b IN (1, 2) AND c < $3 AND d > $2 ORDER BY a`, 3},
		{`SELECT CASE WHEN a > $2 THEN $1 ELSE 0 END AS k, -a FROM t WHERE NOT (b IS NULL)`, 2},
		{`SELECT a FROM t JOIN u ON t.a = u.a AND u.b > $1 GROUP BY a HAVING SUM(b) > $2`, 2},
		{`INSERT INTO t VALUES ($1, $2), (3, $3)`, 3},
		{`UPDATE t SET b = $2 WHERE a = $1`, 2},
		{`DELETE FROM t WHERE a = $1`, 1},
		{`SELECT a FROM t`, 0},
	} {
		st, err := Parse(c.src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.src, err)
		}
		n, err := CountParams(st)
		if err != nil || n != c.want {
			t.Fatalf("CountParams(%q) = %d, %v; want %d", c.src, n, err, c.want)
		}
		args := make([]types.Value, n)
		for i := range args {
			args[i] = types.NewInt(int64(100 + i))
		}
		sub, err := SubstituteParams(st, args)
		if err != nil {
			t.Fatalf("SubstituteParams(%q): %v", c.src, err)
		}
		if m, _ := CountParams(sub); m != 0 {
			t.Fatalf("%q: %d placeholders left after substitution", c.src, m)
		}
		if again, _ := CountParams(st); again != c.want {
			t.Fatalf("%q: substitution mutated the prepared statement", c.src)
		}
		if n > 0 {
			if _, err := SubstituteParams(st, args[:n-1]); err == nil {
				t.Fatalf("%q: missing argument accepted", c.src)
			}
		}
	}
	st, err := Parse(`SELECT a FROM t WHERE a = $2`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CountParams(st); err == nil {
		t.Error("a gap in the placeholders ($2 without $1) was accepted")
	}
}

func TestPrepareExecuteDeallocate(t *testing.T) {
	st, err := Parse(`PREPARE q1 AS SELECT a FROM t WHERE a = $1 AND b = $2`)
	if err != nil {
		t.Fatal(err)
	}
	p, ok := st.(*PrepareStmt)
	if !ok || p.Name != "q1" || p.NumParams != 2 {
		t.Fatalf("PREPARE = %+v", st)
	}
	st, err = Parse(`EXECUTE q1 (7, 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := st.(*ExecuteStmt); !ok || e.Name != "q1" || len(e.Args) != 2 || e.Args[1].S != "x" {
		t.Fatalf("EXECUTE = %+v", st)
	}
	for _, src := range []string{`EXECUTE q1`, `EXECUTE q1 ()`} {
		if st, err := Parse(src); err != nil || len(st.(*ExecuteStmt).Args) != 0 {
			t.Fatalf("%s: %+v, %v", src, st, err)
		}
	}
	for _, src := range []string{`DEALLOCATE q1`, `DEALLOCATE PREPARE q1`} {
		st, err := Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if d, ok := st.(*DeallocateStmt); !ok || d.Name != "q1" {
			t.Fatalf("%s = %+v", src, st)
		}
	}
	for _, bad := range []string{
		`PREPARE q1 SELECT a FROM t`,
		`PREPARE q1 AS EXECUTE q2`,
		`PREPARE q1 AS SELECT a FROM t WHERE a = $2`,
		`PREPARE AS SELECT 1`,
		`EXECUTE q1 (1, 2`,
		`EXECUTE q1 (a)`,
		`DEALLOCATE`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

func TestClassify(t *testing.T) {
	for src, want := range map[string]StatementClass{
		`SELECT a FROM t`:                     ClassSelect,
		`EXPLAIN SELECT a FROM t`:             ClassExplain,
		`PROFILE SELECT a FROM t`:             ClassExplain,
		`EXECUTE q1 (1)`:                      ClassExecute,
		`CREATE TABLE t (a INT)`:              ClassOther,
		`INSERT INTO t VALUES (1)`:            ClassOther,
		`this is not sql`:                     ClassOther,
		`/* lead */ SELECT a FROM t`:          ClassSelect,
		`PREPARE q AS SELECT a FROM t`:        ClassOther,
		`SELECT COUNT(*) FROM t WHERE a > $1`: ClassSelect,
	} {
		if got := Classify(src); got != want {
			t.Errorf("Classify(%q) = %d, want %d", src, got, want)
		}
	}
}

func TestBindHelpers(t *testing.T) {
	tbl := &catalog.Table{Name: "t", Schema: types.NewSchema(
		types.Column{Name: "a", Typ: types.Int64},
		types.Column{Name: "b", Typ: types.Varchar},
	)}
	st, err := Parse(`DELETE FROM t WHERE a + 1 > 2 AND b = 'x'`)
	if err != nil {
		t.Fatal(err)
	}
	e, err := BindExprToTable(st.(*DeleteStmt).Where, tbl)
	if err != nil {
		t.Fatal(err)
	}
	v, err := e.EvalRow(types.Row{types.NewInt(5), types.NewString("x")})
	if err != nil || !v.Bool() {
		t.Fatalf("bound predicate = %v, %v", v, err)
	}
	st, err = Parse(`DELETE FROM t WHERE missing = 1`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BindExprToTable(st.(*DeleteStmt).Where, tbl); err == nil {
		t.Error("unknown column bound")
	}
	st, err = Parse(`INSERT INTO t VALUES (2 * 3 + 1, 'y')`)
	if err != nil {
		t.Fatal(err)
	}
	lit, err := BindLiteralExpr(st.(*InsertStmt).Rows[0][0])
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := lit.EvalRow(nil); v.I != 7 {
		t.Fatalf("literal = %v", v)
	}
	if ts, err := ParseTimestamp("2012-08-27 10:30:00"); err != nil || ts.Typ != types.Timestamp {
		t.Fatalf("ParseTimestamp = %v, %v", ts, err)
	}
	if _, err := ParseTimestamp("not a time"); err == nil {
		t.Error("bad timestamp parsed")
	}
}

// TestParseErrorPaths: malformed statements fail with a positioned error
// instead of parsing into something else.
func TestParseErrorPaths(t *testing.T) {
	for _, bad := range []string{
		`SELECT`,
		`SELECT a FROM`,
		`SELECT a FROM t WHERE`,
		`SELECT a FROM t ORDER`,
		`SELECT a FROM t GROUP a`,
		`SELECT a FROM t LIMIT x`,
		`SELECT a FROM t LEFT u ON t.a = u.a`,
		`SELECT (a FROM t`,
		`SELECT CASE WHEN a THEN 1 FROM t`,
		`SELECT COUNT(* FROM t`,
		`SELECT a FROM t WHERE a IN 1`,
		`SELECT a FROM t WHERE a IS 1`,
		`SELECT a FROM t WHERE a = 'unterminated`,
		`SELECT a FROM t WHERE a @ 1`,
		`CREATE TABLE t (a NOTATYPE)`,
		`CREATE TABLE t a INT`,
		`CREATE TABLE (a INT)`,
		`CREATE PROJECTION p ON t`,
		`CREATE PROJECTION p ON t (a) ORDER a`,
		`CREATE SOMETHING x`,
		`INSERT INTO t (1)`,
		`INSERT INTO t VALUES 1`,
		`INSERT INTO t VALUES (1`,
		`DELETE t WHERE a = 1`,
		`UPDATE t a = 1`,
		`UPDATE t SET a 1`,
		`DROP`,
		`DROP WIDGET x`,
		`SET RESOURCE x`,
		`SET SESSION TRACE maybe`,
		`ANALYZE_STATISTICS(t)`,
		`CREATE RESOURCE POOL p MEMORYSIZE`,
		`SELECT a FROM t; SELECT b FROM t`,
	} {
		_, err := Parse(bad)
		if err == nil {
			t.Errorf("Parse(%q) accepted", bad)
			continue
		}
		if !strings.Contains(err.Error(), "sql:") {
			t.Errorf("Parse(%q) error %q lacks the package prefix", bad, err)
		}
	}
}
