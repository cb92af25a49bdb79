package cluster

import (
	"fmt"

	"repro/internal/catalog"
	"repro/internal/expr"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// DML: row routing and staged application at commit epoch. "Any ROS or WOS
// created by the committing transaction becomes visible to other
// transactions when the commit completes" (paper §5) — so all effects are
// staged on the transaction and applied under the commit epoch.

// StageInsert routes rows to every projection of the table (including
// buddies) and stages per-node WOS appends. When direct is true (or a WOS is
// saturated) the rows bypass the WOS and are written straight to new ROS
// containers at commit — the paper's "Direct Loading to the ROS" (§7).
//
// The rows become typed columns once; segmentation routing is one
// vectorized evaluation per projection.
func (c *Cluster) StageInsert(tx *txn.Txn, table string, rows []types.Row, direct bool) error {
	if c.IsShutdown() {
		return fmt.Errorf("cluster: database is shut down")
	}
	if !c.HasQuorum() {
		return fmt.Errorf("cluster: no quorum, cannot accept DML")
	}
	t, err := c.cat.Table(table)
	if err != nil {
		return err
	}
	projs := c.cat.ProjectionsFor(table)
	if len(projs) == 0 {
		return fmt.Errorf("cluster: table %q has no projections; create a super projection first", table)
	}
	// Validate NOT NULL and arity once against the table schema.
	for _, r := range rows {
		if len(r) != t.Schema.Len() {
			return fmt.Errorf("cluster: row arity %d != table %s arity %d", len(r), table, t.Schema.Len())
		}
		for i, v := range r {
			col := t.Schema.Col(i)
			if v.Null && !col.Nullable {
				return fmt.Errorf("cluster: NULL in NOT NULL column %q", col.Name)
			}
		}
	}
	tcols := vector.NewBatchForSchema(t.Schema, len(rows))
	for _, r := range rows {
		tcols.AppendRow(r)
	}
	type target struct {
		load *projLoad
		node *Node
		sel  []int
	}
	var staged []target
	for _, p := range projs {
		if err := c.EnsureStorage(p); err != nil {
			return err
		}
		if len(rows) == 0 {
			continue
		}
		ld := &projLoad{proj: p, table: t, rows: rows}
		if ld.colIdx, err = projectionColumns(t, p); err != nil {
			return err
		}
		ld.cols = make([]*vector.Vector, len(ld.colIdx))
		for i, ci := range ld.colIdx {
			ld.cols[i] = tcols.Cols[ci]
		}
		sels, err := c.route(p, ld.cols, len(rows))
		if err != nil {
			return err
		}
		for id, sel := range sels {
			if len(sel) > 0 {
				staged = append(staged, target{load: ld, node: c.nodes[id], sel: sel})
			}
		}
	}
	tx.StageCommit(true, func(epoch types.Epoch) error {
		for _, tg := range staged {
			if !tg.node.Up() {
				continue // down nodes miss the DML; recovery replays it
			}
			p := tg.load.proj
			mgr, err := tg.node.Mgr(p, c.ManagerOpts())
			if err != nil {
				return err
			}
			if direct || mgr.WOS().Saturated() {
				if err := c.directLoad(mgr, tg.load, tg.sel, epoch, tx); err != nil {
					return err
				}
				c.Txn.Epochs.SetLGE(p.Name, epoch)
				continue
			}
			if _, err := mgr.WOS().Append(tg.load.projectedRows(tg.sel), epoch); err != nil {
				return err
			}
		}
		return nil
	})
	return nil
}

// projLoad is one insert's rows as one projection stores them.
type projLoad struct {
	proj   *catalog.Projection
	table  *catalog.Table
	rows   []types.Row      // the table rows
	colIdx []int            // projection column -> table column
	cols   []*vector.Vector // the projection's columns, every row
	prows  []types.Row      // rows in projection column order, built on first use
	place  []storage.Placement
}

// projectionColumns maps a projection's columns onto table column indexes
// (resolving prejoin dimension columns is the caller's concern; plain
// projections only).
func projectionColumns(t *catalog.Table, p *catalog.Projection) ([]int, error) {
	out := make([]int, len(p.Columns))
	for i, name := range p.Columns {
		if _, _, isDim := splitDim(name); isDim {
			return nil, fmt.Errorf("cluster: prejoin projection %q must be loaded via refresh", p.Name)
		}
		if out[i] = t.Schema.ColIndex(name); out[i] < 0 {
			return nil, fmt.Errorf("cluster: projection %q column %q missing from table", p.Name, name)
		}
	}
	return out, nil
}

// projectedRows returns the rows listed in sel in projection column order
// (the WOS stores rows).
func (ld *projLoad) projectedRows(sel []int) []types.Row {
	if ld.prows == nil {
		ld.prows = make([]types.Row, len(ld.rows))
		for i, r := range ld.rows {
			pr := make(types.Row, len(ld.colIdx))
			for j, ci := range ld.colIdx {
				pr[j] = r[ci]
			}
			ld.prows[i] = pr
		}
	}
	out := make([]types.Row, len(sel))
	for i, r := range sel {
		out[i] = ld.prows[r]
	}
	return out
}

func splitDim(name string) (string, string, bool) {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i], name[i+1:], true
		}
	}
	return "", "", false
}

// directLoad writes the rows listed in sel straight to ROS containers, one
// per (partition, local segment), bypassing the WOS: each is sorted and
// written by storage.WriteSorted with the commit epoch as its epoch column.
func (c *Cluster) directLoad(mgr *storage.Manager, ld *projLoad, sel []int, epoch types.Epoch, tx *txn.Txn) error {
	p := ld.proj
	if ld.place == nil {
		place, err := c.Placer(ld.table, p)
		if err != nil {
			return err
		}
		if ld.place, err = place(ld.cols, len(ld.rows)); err != nil {
			return err
		}
	}
	epochs := make([]int64, len(ld.rows))
	for i := range epochs {
		epochs[i] = int64(epoch)
	}
	cols := append(ld.cols[:len(ld.cols):len(ld.cols)], vector.NewFromInts(types.Int64, epochs))
	encs := encodingSpecs(p)
	for _, g := range storage.GroupByPlacement(ld.place, sel) {
		id, dir := mgr.NewContainerID()
		meta := &storage.ContainerMeta{
			ID: id, Projection: p.Name, Cols: mgr.StoredColumns(encs),
			Partition: g.Partition, LocalSegment: g.LocalSegment,
			MinEpoch: epoch, MaxEpoch: epoch,
		}
		if _, err := storage.WriteSorted(dir, meta, cols, g.Rows, p.SortKey(), storage.WriterOpts{}); err != nil {
			return err
		}
		if err := mgr.Publish(meta); err != nil {
			return err
		}
		tx.StageRollback(func() { mgr.Remove(id) })
	}
	return nil
}

func encodingSpecs(p *catalog.Projection) map[string]storage.ColumnSpec {
	out := map[string]storage.ColumnSpec{}
	for name, k := range p.Encodings {
		i := p.Schema.ColIndex(name)
		if i < 0 {
			continue
		}
		out[name] = storage.ColumnSpec{Name: name, Typ: p.Schema.Col(i).Typ, Enc: k}
	}
	return out
}

// StageDelete finds rows matching pred in every projection of the table on
// every up node and stages delete vectors (paper §3.7.1: deletes never
// modify data in place). Returns the number of logical table rows deleted
// (counted on super projections only, to avoid double counting).
func (c *Cluster) StageDelete(tx *txn.Txn, table string, pred expr.Expr, snapshot types.Epoch) (int64, error) {
	if !c.HasQuorum() {
		return 0, fmt.Errorf("cluster: no quorum, cannot accept DML")
	}
	t, err := c.cat.Table(table)
	if err != nil {
		return 0, err
	}
	var deleted int64
	countProj := ""
	for _, p := range c.cat.ProjectionsFor(table) {
		if err := c.EnsureStorage(p); err != nil {
			return 0, err
		}
		// Remap the table-schema predicate onto the projection schema.
		var ppred expr.Expr
		if pred != nil {
			m := map[int]int{}
			for i := 0; i < t.Schema.Len(); i++ {
				if pi := p.Schema.ColIndex(t.Schema.Col(i).Name); pi >= 0 {
					m[i] = pi
				}
			}
			ppred, err = expr.Remap(pred, m)
			if err != nil {
				// Projection lacks predicate columns: it must still delete
				// matching rows; unsupported in this reproduction.
				return 0, fmt.Errorf("cluster: projection %q does not cover DELETE predicate columns: %w", p.Name, err)
			}
		}
		if countProj == "" && p.IsSuper && !p.IsBuddy {
			countProj = p.Name
		}
		for _, n := range c.UpNodes() {
			mgr, err := n.Mgr(p, c.ManagerOpts())
			if err != nil {
				return 0, err
			}
			targets, err := findMatches(mgr, ppred, snapshot)
			if err != nil {
				return 0, err
			}
			if p.Name == countProj {
				for _, entries := range targets {
					deleted += int64(len(entries))
				}
			}
			m := mgr
			tg := targets
			tx.StageCommit(true, func(epoch types.Epoch) error {
				for target, positions := range tg {
					entries := make([]storage.DVEntry, len(positions))
					for i, pos := range positions {
						entries[i] = storage.DVEntry{Pos: pos, Epoch: epoch}
					}
					m.DVs().Add(target, entries)
				}
				return nil
			})
		}
	}
	return deleted, nil
}

// findMatches scans a projection's local storage and returns matching row
// positions per delete-vector target (container ID or the WOS).
func findMatches(mgr *storage.Manager, pred expr.Expr, snapshot types.Epoch) (map[string][]int64, error) {
	out := map[string][]int64{}
	deletedOf := func(target string) map[int64]bool {
		s := map[int64]bool{}
		for _, p := range mgr.DVs().DeletedAt(target, snapshot) {
			s[p] = true
		}
		return s
	}
	for _, r := range mgr.Containers() {
		if r.Meta.MinEpoch > snapshot {
			continue
		}
		cols := make([]int, len(r.Meta.Cols))
		for i := range cols {
			cols[i] = i
		}
		batch, err := r.ReadAll(cols)
		if err != nil {
			return nil, err
		}
		epochIdx := r.Meta.ColIndex(storage.EpochColumn)
		dels := deletedOf(r.Meta.ID)
		rows := batch.Rows()
		for pos, row := range rows {
			if dels[int64(pos)] {
				continue
			}
			if epochIdx >= 0 && types.Epoch(row[epochIdx].I) > snapshot {
				continue
			}
			match := true
			if pred != nil {
				v, err := pred.EvalRow(row[:len(row)-1])
				if err != nil {
					return nil, err
				}
				match = v.Bool()
			}
			if match {
				out[r.Meta.ID] = append(out[r.Meta.ID], int64(pos))
			}
		}
	}
	dels := deletedOf(storage.WOSTarget)
	for _, wr := range mgr.WOS().Snapshot(snapshot) {
		if dels[wr.Pos] {
			continue
		}
		match := true
		if pred != nil {
			v, err := pred.EvalRow(wr.Row)
			if err != nil {
				return nil, err
			}
			match = v.Bool()
		}
		if match {
			out[storage.WOSTarget] = append(out[storage.WOSTarget], wr.Pos)
		}
	}
	return out, nil
}

// StageUpdate implements UPDATE as DELETE + INSERT (paper §3.7.1): matching
// rows are read at the snapshot, deleted, and re-inserted with the SET
// expressions applied.
func (c *Cluster) StageUpdate(tx *txn.Txn, table string, set map[int]expr.Expr, pred expr.Expr, snapshot types.Epoch) (int64, error) {
	t, err := c.cat.Table(table)
	if err != nil {
		return 0, err
	}
	// Gather current matching rows from a super projection across up nodes.
	super, err := c.cat.SuperProjection(table)
	if err != nil {
		return 0, err
	}
	var newRows []types.Row
	seen := map[int]bool{}
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(super, c.ManagerOpts())
		if err != nil {
			return 0, err
		}
		rows, err := collectRows(mgr, pred, snapshot, t, super)
		if err != nil {
			return 0, err
		}
		for _, r := range rows {
			updated := r.Clone()
			for ci, e := range set {
				v, err := e.EvalRow(r)
				if err != nil {
					return 0, err
				}
				if v.Typ != t.Schema.Col(ci).Typ && !(v.Null) {
					v = coerceTo(v, t.Schema.Col(ci).Typ)
				}
				updated[ci] = v
			}
			newRows = append(newRows, updated)
		}
		seen[n.ID] = true
	}
	if _, err := c.StageDelete(tx, table, pred, snapshot); err != nil {
		return 0, err
	}
	if len(newRows) > 0 {
		if err := c.StageInsert(tx, table, newRows, false); err != nil {
			return 0, err
		}
	}
	return int64(len(newRows)), nil
}

func coerceTo(v types.Value, t types.Type) types.Value {
	switch {
	case t == types.Float64 && v.Typ.IsIntegral():
		return types.NewFloat(float64(v.I))
	case t.IsIntegral() && v.Typ == types.Float64:
		return types.Value{Typ: t, I: int64(v.F)}
	default:
		v.Typ = t
		return v
	}
}

// collectRows returns visible table rows matching pred from one node's
// super-projection storage, in table column order.
func collectRows(mgr *storage.Manager, pred expr.Expr, snapshot types.Epoch, t *catalog.Table, p *catalog.Projection) ([]types.Row, error) {
	var ppred expr.Expr
	var err error
	if pred != nil {
		m := map[int]int{}
		for i := 0; i < t.Schema.Len(); i++ {
			if pi := p.Schema.ColIndex(t.Schema.Col(i).Name); pi >= 0 {
				m[i] = pi
			}
		}
		if ppred, err = expr.Remap(pred, m); err != nil {
			return nil, err
		}
	}
	matches, err := findMatches(mgr, ppred, snapshot)
	if err != nil {
		return nil, err
	}
	var out []types.Row
	// Re-read matched rows in table order.
	for target, positions := range matches {
		if target == storage.WOSTarget {
			posSet := map[int64]bool{}
			for _, pos := range positions {
				posSet[pos] = true
			}
			for _, wr := range mgr.WOS().Snapshot(snapshot) {
				if posSet[wr.Pos] {
					out = append(out, projToTableRow(t, p, wr.Row))
				}
			}
			continue
		}
		r, ok := mgr.Container(target)
		if !ok {
			continue
		}
		cols := make([]int, len(r.Meta.Cols))
		for i := range cols {
			cols[i] = i
		}
		batch, err := r.ReadAll(cols)
		if err != nil {
			return nil, err
		}
		rows := batch.Rows()
		for _, pos := range positions {
			row := rows[pos]
			out = append(out, projToTableRow(t, p, row[:len(row)-1]))
		}
	}
	return out, nil
}

func projToTableRow(t *catalog.Table, p *catalog.Projection, pr types.Row) types.Row {
	out := make(types.Row, t.Schema.Len())
	for i := 0; i < t.Schema.Len(); i++ {
		pi := p.Schema.ColIndex(t.Schema.Col(i).Name)
		out[i] = pr[pi]
	}
	return out
}
