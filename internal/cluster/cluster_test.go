package cluster

import (
	"testing"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

func testCluster(t *testing.T, nodes, k int) (*Cluster, *catalog.Catalog) {
	t.Helper()
	cat := catalog.New("")
	if err := cat.CreateTable(&catalog.Table{
		Name: "t",
		Schema: types.NewSchema(
			types.Column{Name: "id", Typ: types.Int64},
			types.Column{Name: "v", Typ: types.Float64},
		),
	}); err != nil {
		t.Fatal(err)
	}
	c, err := New(Config{Nodes: nodes, Dir: t.TempDir(), K: k}, cat, txn.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	return c, cat
}

func segProjection(t *testing.T, cat *catalog.Catalog, name string, offset int) *catalog.Projection {
	t.Helper()
	p := &catalog.Projection{
		Name: name, Anchor: "t",
		Columns:   []string{"id", "v"},
		SortOrder: []string{"id"},
		Seg:       catalog.Segmentation{ExprText: "HASH(id)", Offset: offset},
		IsBuddy:   offset > 0,
	}
	if err := cat.CreateProjection(p); err != nil {
		t.Fatal(err)
	}
	seg, err := expr.NewFunc("HASH", expr.NewColRef(0, types.Int64, "id"))
	if err != nil {
		t.Fatal(err)
	}
	p.Seg.Expr = seg
	return p
}

func TestRouteRowSegmented(t *testing.T) {
	c, cat := testCluster(t, 4, 0)
	p := segProjection(t, cat, "p", 0)
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewFloat(0)}
		ids, err := c.RouteRow(p, row)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != 1 {
			t.Fatalf("segmented row routed to %d nodes", len(ids))
		}
		counts[ids[0]]++
	}
	for n, cnt := range counts {
		if cnt < 500 || cnt > 1500 {
			t.Errorf("node %d got %d rows: ring badly skewed", n, cnt)
		}
	}
}

func TestRouteRowBuddyOffset(t *testing.T) {
	c, cat := testCluster(t, 3, 1)
	p := segProjection(t, cat, "p", 0)
	b := segProjection(t, cat, "p_b1", 1)
	p.Buddy = "p_b1"
	for i := 0; i < 300; i++ {
		row := types.Row{types.NewInt(int64(i)), types.NewFloat(0)}
		pid, _ := c.RouteRow(p, row)
		bid, _ := c.RouteRow(b, row)
		if pid[0] == bid[0] {
			t.Fatalf("row %d stored on the same node by both projections (K-safety violated)", i)
		}
		if bid[0] != (pid[0]+1)%3 {
			t.Fatalf("buddy offset wrong: primary %d buddy %d", pid[0], bid[0])
		}
	}
}

func TestRouteRowReplicated(t *testing.T) {
	c, cat := testCluster(t, 3, 0)
	p := &catalog.Projection{
		Name: "r", Anchor: "t", Columns: []string{"id", "v"},
		Seg: catalog.Segmentation{Replicated: true},
	}
	cat.CreateProjection(p)
	ids, err := c.RouteRow(p, types.Row{types.NewInt(1), types.NewFloat(0)})
	if err != nil || len(ids) != 3 {
		t.Errorf("replicated row routed to %v (%v)", ids, err)
	}
}

func TestQuorum(t *testing.T) {
	c, _ := testCluster(t, 5, 1)
	if c.QuorumSize() != 3 {
		t.Errorf("quorum of 5 = %d", c.QuorumSize())
	}
	if !c.HasQuorum() {
		t.Error("full cluster should have quorum")
	}
	c.nodes[0].setUp(false)
	c.nodes[1].setUp(false)
	if !c.HasQuorum() {
		t.Error("3 of 5 should still be quorum")
	}
	c.nodes[2].setUp(false)
	if c.HasQuorum() {
		t.Error("2 of 5 is not quorum")
	}
}

func TestFailNodeEjectsAndHoldsAHM(t *testing.T) {
	c, cat := testCluster(t, 3, 1)
	p := segProjection(t, cat, "p", 0)
	segProjection(t, cat, "p_b1", 1)
	p.Buddy = "p_b1"
	if err := c.FailNode(1); err != nil {
		t.Fatalf("single failure with buddies should not shut down: %v", err)
	}
	if c.Node(1).Up() {
		t.Error("node still up")
	}
	// AHM is held.
	c.Txn.Epochs.CommitDML()
	c.Txn.Epochs.CommitDML()
	if got := c.Txn.Epochs.AdvanceAHM(); got != 0 {
		t.Errorf("AHM advanced to %d while node down", got)
	}
	if err := c.FailNode(1); err == nil {
		t.Error("failing a down node should error")
	}
}

func TestDataUnavailableWithoutBuddies(t *testing.T) {
	c, cat := testCluster(t, 3, 0)
	segProjection(t, cat, "p", 0) // no buddy
	err := c.FailNode(0)
	if err == nil {
		t.Fatal("losing a segment with no buddy must shut the database down")
	}
	if !c.IsShutdown() {
		t.Error("cluster should be shut down")
	}
}

// TestLocalSegmentOf checks the vectorized placement and routing: local
// segments cover all three of a node's subranges, and every row goes to
// the node RouteRow names for it.
func TestLocalSegmentOf(t *testing.T) {
	c, cat := testCluster(t, 2, 0)
	p := segProjection(t, cat, "p", 0)
	tbl, err := cat.Table("t")
	if err != nil {
		t.Fatal(err)
	}
	place, err := c.Placer(tbl, p)
	if err != nil {
		t.Fatal(err)
	}
	const n = 3000
	ids, vs := vector.New(types.Int64, n), vector.New(types.Float64, n)
	for i := 0; i < n; i++ {
		ids.AppendValue(types.NewInt(int64(i)))
		vs.AppendValue(types.NewFloat(0))
	}
	cols := []*vector.Vector{ids, vs}
	pl, err := place(cols, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int]int{}
	for _, x := range pl {
		if x.LocalSegment < 0 || x.LocalSegment >= 3 || x.Partition != "" {
			t.Fatalf("placement %+v out of range", x)
		}
		counts[x.LocalSegment]++
	}
	if len(counts) != 3 {
		t.Errorf("local segments used = %v, want 3 (Figure 2)", counts)
	}
	sels, err := c.route(p, cols, n)
	if err != nil {
		t.Fatal(err)
	}
	routed := 0
	for id, sel := range sels {
		for _, i := range sel {
			want, err := c.RouteRow(p, types.Row{ids.ValueAt(i), vs.ValueAt(i)})
			if err != nil || len(want) != 1 || want[0] != id {
				t.Fatalf("row %d routed to node %d, RouteRow says %v (%v)", i, id, want, err)
			}
			routed++
		}
	}
	if routed != n {
		t.Fatalf("routed %d of %d rows", routed, n)
	}
}

func TestStageInsertRejectsNullInNotNull(t *testing.T) {
	cat := catalog.New("")
	cat.CreateTable(&catalog.Table{
		Name: "nn",
		Schema: types.NewSchema(
			types.Column{Name: "id", Typ: types.Int64, Nullable: false},
		),
	})
	c, err := New(Config{Nodes: 1, Dir: t.TempDir()}, cat, txn.NewManager())
	if err != nil {
		t.Fatal(err)
	}
	cat.CreateProjection(&catalog.Projection{Name: "nn_s", Anchor: "nn", Columns: []string{"id"}})
	tx := c.Txn.Begin(txn.ReadCommitted)
	err = c.StageInsert(tx, "nn", []types.Row{{types.NewNull(types.Int64)}}, false)
	if err == nil {
		t.Error("NULL into NOT NULL column should fail")
	}
}
