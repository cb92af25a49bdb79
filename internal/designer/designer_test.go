package designer

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/encoding"
	"repro/internal/types"
)

func designCatalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New("")
	if err := cat.CreateTable(&catalog.Table{
		Name: "sales",
		Schema: types.NewSchema(
			types.Column{Name: "sale_id", Typ: types.Int64},
			types.Column{Name: "cust", Typ: types.Int64},
			types.Column{Name: "price", Typ: types.Float64},
			types.Column{Name: "region", Typ: types.Varchar},
		),
	}); err != nil {
		t.Fatal(err)
	}
	if err := cat.CreateTable(&catalog.Table{
		Name: "customers",
		Schema: types.NewSchema(
			types.Column{Name: "cust_id", Typ: types.Int64},
			types.Column{Name: "name", Typ: types.Varchar},
		),
	}); err != nil {
		t.Fatal(err)
	}
	return cat
}

func sampleData(n int) map[string][]types.Row {
	sales := make([]types.Row, n)
	for i := range sales {
		sales[i] = types.Row{
			types.NewInt(int64(i)),
			types.NewInt(int64(i % 50)),
			types.NewFloat(float64(i)),
			types.NewString([]string{"east", "west"}[i%2]),
		}
	}
	custs := make([]types.Row, 50)
	for i := range custs {
		custs[i] = types.Row{types.NewInt(int64(i)), types.NewString(fmt.Sprintf("c%d", i))}
	}
	return map[string][]types.Row{"sales": sales, "customers": custs}
}

var workload = []string{
	`SELECT cust, SUM(price) FROM sales GROUP BY cust`,
	`SELECT region, COUNT(*) FROM sales GROUP BY region`,
	`SELECT name, price FROM sales JOIN customers ON cust = cust_id WHERE region = 'east'`,
}

func TestDesignProposesSuperProjections(t *testing.T) {
	cat := designCatalog(t)
	prop, err := Design(cat, workload, sampleData(200_000), LoadOptimized)
	if err != nil {
		t.Fatal(err)
	}
	supers := 0
	for _, p := range prop.Projections {
		if p.IsSuper {
			supers++
		}
	}
	if supers != 2 {
		t.Errorf("super projections = %d, want one per table", supers)
	}
	// Load-optimized proposes nothing extra.
	if len(prop.Projections) != 2 {
		t.Errorf("load-optimized proposals = %d", len(prop.Projections))
	}
}

func TestDesignBalancedAddsNarrowProjections(t *testing.T) {
	cat := designCatalog(t)
	prop, err := Design(cat, workload, sampleData(200_000), Balanced)
	if err != nil {
		t.Fatal(err)
	}
	var salesProjs []ProposedProjection
	for _, p := range prop.Projections {
		if p.Table == "sales" {
			salesProjs = append(salesProjs, p)
		}
	}
	if len(salesProjs) < 2 {
		t.Fatalf("balanced should add narrow sales projections: %d", len(salesProjs))
	}
	// The paper's bound: one super plus at most three narrow.
	if len(salesProjs) > 1+MaxExtraProjections {
		t.Errorf("too many projections: %d", len(salesProjs))
	}
}

func TestDesignSegmentationChoice(t *testing.T) {
	cat := designCatalog(t)
	prop, err := Design(cat, workload, sampleData(200_000), Balanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prop.Projections {
		switch p.Table {
		case "customers":
			// Small dimension table: replicate for local joins.
			if !p.Replicated {
				t.Errorf("customers projection %s should be replicated", p.Name)
			}
		case "sales":
			if p.Replicated {
				t.Errorf("large sales projection %s should be segmented", p.Name)
			}
			if p.SegText == "" || !strings.HasPrefix(p.SegText, "HASH(") {
				t.Errorf("sales projection %s segmentation = %q", p.Name, p.SegText)
			}
		}
	}
}

func TestDesignEmpiricalEncodings(t *testing.T) {
	cat := designCatalog(t)
	prop, err := Design(cat, workload, sampleData(200_000), Balanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prop.Projections {
		if p.Table != "sales" || !p.IsSuper {
			continue
		}
		// The super projection sorts by a low-cardinality column (cust or
		// region from the workload); that sort column must get RLE.
		lead := p.SortOrder[0]
		if got := p.Encodings[lead]; got != encoding.RLE {
			t.Errorf("sort column %s encoding = %s, want RLE", lead, got)
		}
		// sale_id (unique ints) must not be RLE.
		if got := p.Encodings["sale_id"]; got == encoding.RLE {
			t.Error("unique column chosen RLE")
		}
	}
}

func TestDesignSQLRendering(t *testing.T) {
	cat := designCatalog(t)
	prop, err := Design(cat, workload, sampleData(200_000), Balanced)
	if err != nil {
		t.Fatal(err)
	}
	stmts := prop.Statements()
	if len(stmts) != len(prop.Projections) {
		t.Fatal("statement count mismatch")
	}
	for _, s := range stmts {
		if !strings.HasPrefix(s, "CREATE PROJECTION") || !strings.Contains(s, " ON ") {
			t.Errorf("bad statement: %s", s)
		}
	}
}

func TestDesignRejectsNonSelectWorkload(t *testing.T) {
	cat := designCatalog(t)
	if _, err := Design(cat, []string{`DELETE FROM sales`}, nil, Balanced); err == nil {
		t.Error("non-SELECT workload should fail")
	}
	if _, err := Design(cat, []string{`SELECT bogus FROM sales`}, nil, Balanced); err == nil {
		t.Error("invalid workload query should fail")
	}
}

func TestDesignWithoutSamples(t *testing.T) {
	cat := designCatalog(t)
	prop, err := Design(cat, workload, nil, Balanced)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range prop.Projections {
		for _, k := range p.Encodings {
			if k != encoding.Auto {
				t.Errorf("without samples encodings must default to AUTO, got %s", k)
			}
		}
	}
}

func TestDesignRecordsOnConjuncts(t *testing.T) {
	cat := designCatalog(t)
	interest, err := analyzeWorkload(cat, []string{
		`SELECT name FROM sales JOIN customers ON cust = cust_id AND price > 10.0`,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := interest["sales"]
	if s.rangeCols["price"] != 1 || !s.usedCols["price"] {
		t.Errorf("a non-equality ON conjunct must count as a range predicate: range=%v used=%v", s.rangeCols, s.usedCols)
	}
}
