package cluster

import (
	"fmt"
	"path/filepath"

	"repro/internal/catalog"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Recovery, refresh, rebalance and backup (paper §5.2). Vertica keeps no
// transaction log: "the data+epoch itself serves as a log of past system
// activity", so a recovering node replays missed DML by copying epoch ranges
// from buddy projections in two phases — a lock-free historical phase and a
// brief current phase under a Shared lock.

// lastEpochOf returns the newest epoch present in a node's local storage for
// a projection — the node's per-projection Last Good Epoch after a failure
// (WOS content is lost with the node, so only ROS epochs count).
func lastEpochOf(mgr *storage.Manager) types.Epoch {
	var last types.Epoch
	for _, r := range mgr.Containers() {
		if r.Meta.MaxEpoch > last {
			last = r.Meta.MaxEpoch
		}
	}
	return last
}

// ClearWOS simulates the memory loss of a node failure: buffered WOS rows
// that were never moved out are gone (this is why the LGE exists, §5.1).
func (n *Node) ClearWOS() {
	n.mu.RLock()
	defer n.mu.RUnlock()
	for _, m := range n.mgrs {
		m.WOS().DrainUpTo(types.MaxEpoch)
	}
}

// RecoverNode rejoins a failed node: per projection it truncates to the
// node's local LGE, copies missed epochs from a surviving source in a
// historical phase (no locks), then a current phase under a Shared lock,
// and finally rejoins the cluster and releases the AHM.
func (c *Cluster) RecoverNode(id int) error {
	n := c.nodes[id]
	if n.Up() {
		return fmt.Errorf("cluster: node %d is not down", id)
	}
	current := c.Txn.Epochs.Current()
	for _, p := range c.cat.Projections() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		lge := lastEpochOf(mgr)
		// Historical phase: copy (lge, Eh] lock-free.
		eh := current - 1
		if eh > lge {
			if err := c.copyMissedRows(n, p, mgr, lge, eh); err != nil {
				return err
			}
			lge = eh
		}
		// Current phase: Shared lock on the anchor table, copy the rest.
		rtx := c.Txn.Begin(txn.ReadCommitted)
		if err := c.Txn.Locks.Acquire(rtx.ID, p.Anchor, txn.S); err != nil {
			return err
		}
		err = c.copyMissedRows(n, p, mgr, lge, c.Txn.Epochs.Current())
		c.Txn.Locks.ReleaseAll(rtx.ID)
		if err != nil {
			return err
		}
	}
	n.setUp(true)
	// Release the AHM hold once every node is back.
	if len(c.UpNodes()) == c.N() {
		c.Txn.Epochs.HoldAHM(false)
	}
	healthy := c.HasQuorum() && c.DataAvailable()
	c.mu.Lock()
	if healthy {
		c.shutdown = false
	}
	c.mu.Unlock()
	return nil
}

// copyMissedRows copies projection rows belonging to node n with commit
// epoch in (lo, hi] from a surviving source, including rows that were later
// deleted ("an execution plan similar to INSERT ... SELECT ... is used to
// move rows (including deleted rows) ... a separate plan is used to move
// delete vectors", §5.2).
func (c *Cluster) copyMissedRows(n *Node, p *catalog.Projection, dst *storage.Manager, lo, hi types.Epoch) error {
	src, srcProj, err := c.sourceFor(n, p)
	if err != nil {
		return err
	}
	if src == nil {
		return nil // no source required (e.g. nothing segmented here)
	}
	srcMgr, err := src.Mgr(srcProj, c.ManagerOpts())
	if err != nil {
		return err
	}
	rows, epochs, delEpochs, err := readRowsInEpochRange(srcMgr, lo, hi)
	if err != nil {
		return err
	}
	// Replay deletes of rows the node already has: rows inserted at or
	// before the node's LGE but deleted during the outage need delete
	// vectors on the node's existing containers.
	if err := replayMissedDeletes(c, n, p, dst, srcMgr, lo, hi); err != nil {
		return err
	}
	// Keep only rows that belong to node n under projection p.
	keep := make([]int, 0, len(rows))
	for i, r := range rows {
		ids, err := c.RouteRow(p, r)
		if err != nil {
			return err
		}
		for _, id := range ids {
			if id == n.ID {
				keep = append(keep, i)
				break
			}
		}
	}
	if len(keep) == 0 {
		return nil
	}
	meta, perm, err := writeSortedRows(dst, p, rows, epochs, keep)
	if err != nil {
		return err
	}
	id := meta.ID
	var dvs []storage.DVEntry
	for outPos, i := range perm {
		if delEpochs[i] != 0 {
			dvs = append(dvs, storage.DVEntry{Pos: int64(outPos), Epoch: delEpochs[i]})
		}
	}
	if err := dst.Publish(meta); err != nil {
		return err
	}
	if len(dvs) > 0 {
		dst.DVs().Add(id, dvs)
		if err := dst.DVs().Persist(id); err != nil {
			return err
		}
	}
	return nil
}

// replayMissedDeletes copies delete vectors for rows the recovering node
// already stores (inserted <= lo, deleted in (lo, hi]). Rows are matched by
// full-value equality between the source's deleted rows and the local
// storage — "a separate plan is used to move delete vectors" (§5.2).
func replayMissedDeletes(c *Cluster, n *Node, p *catalog.Projection, dst *storage.Manager, srcMgr *storage.Manager, lo, hi types.Epoch) error {
	// Source rows deleted in the window but inserted before it.
	oldRows, _, oldDels, err := readRowsInEpochRange(srcMgr, 0, lo)
	if err != nil {
		return err
	}
	type pendingDel struct {
		count int
		epoch types.Epoch
	}
	want := map[string]*pendingDel{}
	total := 0
	for i, r := range oldRows {
		if oldDels[i] == 0 || oldDels[i] <= lo || oldDels[i] > hi {
			continue
		}
		ids, err := c.RouteRow(p, r)
		if err != nil {
			return err
		}
		mine := false
		for _, id := range ids {
			if id == n.ID {
				mine = true
			}
		}
		if !mine {
			continue
		}
		k := r.String()
		if want[k] == nil {
			want[k] = &pendingDel{}
		}
		want[k].count++
		want[k].epoch = oldDels[i]
		total++
	}
	if total == 0 {
		return nil
	}
	// Find matching live local positions and stamp delete vectors.
	for _, cr := range dst.Containers() {
		cols := make([]int, len(cr.Meta.Cols))
		for i := range cols {
			cols[i] = i
		}
		batch, err := cr.ReadAll(cols)
		if err != nil {
			return err
		}
		already := map[int64]bool{}
		for _, e := range dst.DVs().Get(cr.Meta.ID) {
			already[e.Pos] = true
		}
		var entries []storage.DVEntry
		for pos, row := range batch.Rows() {
			if already[int64(pos)] {
				continue
			}
			k := row[:len(row)-1].String()
			pd := want[k]
			if pd == nil || pd.count == 0 {
				continue
			}
			pd.count--
			entries = append(entries, storage.DVEntry{Pos: int64(pos), Epoch: pd.epoch})
		}
		if len(entries) > 0 {
			dst.DVs().Add(cr.Meta.ID, entries)
			if err := dst.DVs().Persist(cr.Meta.ID); err != nil {
				return err
			}
		}
	}
	return nil
}

// sourceFor finds a surviving node and projection holding the rows node n
// needs for projection p.
func (c *Cluster) sourceFor(n *Node, p *catalog.Projection) (*Node, *catalog.Projection, error) {
	if p.Seg.Replicated {
		for _, s := range c.UpNodes() {
			if s.ID != n.ID {
				return s, p, nil
			}
		}
		return nil, nil, fmt.Errorf("cluster: no surviving replica of %q", p.Name)
	}
	if p.IsBuddy {
		// The buddy's rows on node n are the primary rows of node
		// (n - offset) mod N; find the owning primary projection.
		for _, primary := range c.cat.Projections() {
			if primary.Buddy != p.Name {
				continue
			}
			owner := (n.ID - p.Seg.Offset%c.N() + c.N()) % c.N()
			src := c.nodes[owner]
			if !src.Up() {
				return nil, nil, fmt.Errorf("cluster: primary source node %d for buddy %q is down", owner, p.Name)
			}
			return src, primary, nil
		}
		return nil, nil, fmt.Errorf("cluster: buddy projection %q has no primary", p.Name)
	}
	if p.Buddy == "" {
		// Unsafe (K=0) projection: nothing to recover from; accept the gap.
		return nil, nil, nil
	}
	buddy, err := c.cat.Projection(p.Buddy)
	if err != nil {
		return nil, nil, err
	}
	host := c.nodes[(n.ID+buddy.Seg.Offset)%c.N()]
	if !host.Up() {
		return nil, nil, fmt.Errorf("cluster: buddy host node %d is down", host.ID)
	}
	return host, buddy, nil
}

// readRowsInEpochRange reads every row of a projection's local storage with
// commit epoch in (lo, hi], returning rows (user columns), their epochs, and
// their delete epoch (0 if live).
func readRowsInEpochRange(mgr *storage.Manager, lo, hi types.Epoch) ([]types.Row, []types.Epoch, []types.Epoch, error) {
	var rows []types.Row
	var epochs, delEpochs []types.Epoch
	for _, r := range mgr.Containers() {
		if r.Meta.MinEpoch > hi || r.Meta.MaxEpoch <= lo {
			continue
		}
		cols := make([]int, len(r.Meta.Cols))
		for i := range cols {
			cols[i] = i
		}
		batch, err := r.ReadAll(cols)
		if err != nil {
			return nil, nil, nil, err
		}
		epochIdx := r.Meta.ColIndex(storage.EpochColumn)
		delOf := map[int64]types.Epoch{}
		for _, e := range mgr.DVs().Get(r.Meta.ID) {
			delOf[e.Pos] = e.Epoch
		}
		all := batch.Rows()
		for pos, row := range all {
			e := types.Epoch(row[epochIdx].I)
			if e <= lo || e > hi {
				continue
			}
			rows = append(rows, row[:len(row)-1])
			epochs = append(epochs, e)
			delEpochs = append(delEpochs, delOf[int64(pos)])
		}
	}
	for _, wr := range mgr.WOS().Snapshot(hi) {
		if wr.Epoch <= lo {
			continue
		}
		var del types.Epoch
		for _, e := range mgr.DVs().Get(storage.WOSTarget) {
			if e.Pos == wr.Pos {
				del = e.Epoch
			}
		}
		rows = append(rows, wr.Row)
		epochs = append(epochs, wr.Epoch)
		delEpochs = append(delEpochs, del)
	}
	return rows, epochs, delEpochs, nil
}

// Refresh populates a projection created after its anchor table was loaded
// (paper §5.2: "refresh is used to populate new projections"). Rows are read
// from the anchor's super projection across the cluster, routed by the new
// projection's segmentation and written with their original epochs.
func (c *Cluster) Refresh(projName string) error {
	p, err := c.cat.Projection(projName)
	if err != nil {
		return err
	}
	if err := c.EnsureStorage(p); err != nil {
		return err
	}
	super, err := c.cat.SuperProjection(p.Anchor)
	if err != nil {
		return err
	}
	if super.Name == p.Name {
		return fmt.Errorf("cluster: cannot refresh a projection from itself")
	}
	t, err := c.cat.Table(p.Anchor)
	if err != nil {
		return err
	}
	// Current phase lock: brief S lock while copying (single phase in the
	// simulation; the historical/current split matters only under
	// concurrent load).
	rtx := c.Txn.Begin(txn.ReadCommitted)
	if err := c.Txn.Locks.Acquire(rtx.ID, p.Anchor, txn.S); err != nil {
		return err
	}
	defer c.Txn.Locks.ReleaseAll(rtx.ID)

	dimRows, err := c.prejoinDimData(p)
	if err != nil {
		return err
	}
	type nodeRows struct {
		rows   []types.Row
		epochs []types.Epoch
	}
	staged := map[int]*nodeRows{}
	seen := map[int]bool{}
	for _, src := range c.UpNodes() {
		if super.Seg.Replicated && len(seen) > 0 {
			break // one replica suffices
		}
		seen[src.ID] = true
		mgr, err := src.Mgr(super, c.ManagerOpts())
		if err != nil {
			return err
		}
		rows, epochs, _, err := readRowsInEpochRange(mgr, 0, c.Txn.Epochs.Current())
		if err != nil {
			return err
		}
		for i, tr := range rows {
			pr, err := c.buildProjectionRow(t, super, p, tr, dimRows)
			if err != nil {
				return err
			}
			if pr == nil {
				continue // prejoin inner join dropped the row
			}
			ids, err := c.RouteRow(p, pr)
			if err != nil {
				return err
			}
			for _, id := range ids {
				nr := staged[id]
				if nr == nil {
					nr = &nodeRows{}
					staged[id] = nr
				}
				nr.rows = append(nr.rows, pr)
				nr.epochs = append(nr.epochs, epochs[i])
			}
		}
	}
	for id, nr := range staged {
		n := c.nodes[id]
		if !n.Up() {
			continue
		}
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		if err := writeRefreshedContainer(mgr, p, nr.rows, nr.epochs); err != nil {
			return err
		}
	}
	return nil
}

// prejoinDimData loads each prejoin dimension table into a key->row map
// using its super projection on the first node that has it.
func (c *Cluster) prejoinDimData(p *catalog.Projection) (map[string]map[string]types.Row, error) {
	if len(p.Prejoin) == 0 {
		return nil, nil
	}
	out := map[string]map[string]types.Row{}
	for _, pj := range p.Prejoin {
		dimT, err := c.cat.Table(pj.DimTable)
		if err != nil {
			return nil, err
		}
		dimSuper, err := c.cat.SuperProjection(pj.DimTable)
		if err != nil {
			return nil, err
		}
		if !dimSuper.Seg.Replicated && c.N() > 1 {
			return nil, fmt.Errorf("cluster: prejoin dimension %q must be replicated", pj.DimTable)
		}
		byKey := map[string]types.Row{}
		for _, n := range c.UpNodes() {
			mgr, err := n.Mgr(dimSuper, c.ManagerOpts())
			if err != nil {
				return nil, err
			}
			rows, _, _, err := readRowsInEpochRange(mgr, 0, c.Txn.Epochs.Current())
			if err != nil {
				return nil, err
			}
			ki := dimSuper.Schema.ColIndex(pj.DimKey)
			for _, r := range rows {
				byKey[r[ki].String()] = projToTableRow(dimT, dimSuper, r)
			}
			break // replicated: one node is enough
		}
		out[pj.DimTable] = byKey
	}
	return out, nil
}

// buildProjectionRow maps a table row (from the super projection) onto the
// target projection's columns, resolving prejoin dimension columns via the
// N:1 join. Inner-join semantics: a missing dimension row drops the fact row.
func (c *Cluster) buildProjectionRow(t *catalog.Table, super *catalog.Projection, p *catalog.Projection, superRow types.Row, dims map[string]map[string]types.Row) (types.Row, error) {
	tableRow := projToTableRow(t, super, superRow)
	out := make(types.Row, p.Schema.Len())
	for i, name := range p.Columns {
		if dim, col, isDim := splitDim(name); isDim {
			var pj *catalog.PrejoinDim
			for j := range p.Prejoin {
				if p.Prejoin[j].DimTable == dim {
					pj = &p.Prejoin[j]
					break
				}
			}
			if pj == nil {
				return nil, fmt.Errorf("cluster: projection %q references %q without a prejoin clause", p.Name, name)
			}
			factKeyIdx := t.Schema.ColIndex(pj.FactKey)
			dimRow, ok := dims[dim][tableRow[factKeyIdx].String()]
			if !ok {
				return nil, nil // N:1 inner join miss
			}
			dimT, err := c.cat.Table(dim)
			if err != nil {
				return nil, err
			}
			out[i] = dimRow[dimT.Schema.ColIndex(col)]
			continue
		}
		out[i] = tableRow[t.Schema.ColIndex(name)]
	}
	return out, nil
}

func writeRefreshedContainer(mgr *storage.Manager, p *catalog.Projection, rows []types.Row, epochs []types.Epoch) error {
	if len(rows) == 0 {
		return nil
	}
	meta, _, err := writeSortedRows(mgr, p, rows, epochs, nil)
	if err != nil {
		return err
	}
	return mgr.Publish(meta)
}

// writeSortedRows writes the rows listed in sel (every row when sel is
// nil; rows in projection column order, with their commit epochs) as one
// new container of projection p, sorted by its sort order. It returns the
// container, unpublished, and the written order of the rows.
func writeSortedRows(mgr *storage.Manager, p *catalog.Projection, rows []types.Row, epochs []types.Epoch, sel []int) (*storage.ContainerMeta, []int, error) {
	batch := vector.NewBatchForSchema(p.Schema, len(rows))
	eps := make([]int64, len(rows))
	for i, r := range rows {
		batch.AppendRow(r)
		eps[i] = int64(epochs[i])
	}
	cols := append(batch.Cols, vector.NewFromInts(types.Int64, eps))
	if sel == nil {
		sel = make([]int, len(rows))
		for i := range sel {
			sel[i] = i
		}
	}
	minE, maxE := epochs[sel[0]], epochs[sel[0]]
	for _, i := range sel {
		minE, maxE = min(minE, epochs[i]), max(maxE, epochs[i])
	}
	id, dir := mgr.NewContainerID()
	meta := &storage.ContainerMeta{
		ID: id, Projection: p.Name, Cols: mgr.StoredColumns(encodingSpecs(p)),
		MinEpoch: minE, MaxEpoch: maxE,
	}
	perm, err := storage.WriteSorted(dir, meta, cols, sel, p.SortKey(), storage.WriterOpts{})
	if err != nil {
		return nil, nil, err
	}
	return meta, perm, nil
}

// AddNode grows the cluster by one node; call Rebalance to redistribute
// segments onto it (paper §5.2).
func (c *Cluster) AddNode() *Node {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := len(c.nodes)
	n := &Node{
		ID:   id,
		Name: fmt.Sprintf("node%04d", id+1),
		Dir:  filepath.Join(c.cfg.Dir, fmt.Sprintf("node%04d", id+1)),
		up:   true,
		mgrs: map[string]*storage.Manager{},
	}
	c.nodes = append(c.nodes, n)
	return n
}

// Rebalance redistributes every segmented projection's rows across the
// current node set. The paper transfers whole local segments in native
// format; the simulation re-routes rows, which preserves the observable
// outcome (each row on its new ring owner).
func (c *Cluster) Rebalance() error {
	for _, p := range c.cat.Projections() {
		if p.Seg.Replicated {
			// New nodes need replica copies.
			if err := c.rebalanceReplicated(p); err != nil {
				return err
			}
			continue
		}
		if err := c.rebalanceSegmented(p); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) rebalanceReplicated(p *catalog.Projection) error {
	// Find a node with data and copy everything to nodes without any.
	var src *Node
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		if mgr.RowCount() > 0 || mgr.WOS().Len() > 0 {
			src = n
			break
		}
	}
	if src == nil {
		return nil
	}
	srcMgr, _ := src.Mgr(p, c.ManagerOpts())
	rows, epochs, _, err := readRowsInEpochRange(srcMgr, 0, c.Txn.Epochs.Current())
	if err != nil {
		return err
	}
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		if mgr.RowCount() > 0 || mgr.WOS().Len() > 0 || n.ID == src.ID {
			continue
		}
		if err := writeRefreshedContainer(mgr, p, rows, epochs); err != nil {
			return err
		}
	}
	return nil
}

func (c *Cluster) rebalanceSegmented(p *catalog.Projection) error {
	// Gather all rows cluster-wide, then rewrite each node's storage with
	// its new share.
	type stamped struct {
		row   types.Row
		epoch types.Epoch
	}
	perNode := map[int][]stamped{}
	for _, n := range c.UpNodes() {
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		rows, epochs, _, err := readRowsInEpochRange(mgr, 0, c.Txn.Epochs.Current())
		if err != nil {
			return err
		}
		for i, r := range rows {
			ids, err := c.RouteRow(p, r)
			if err != nil {
				return err
			}
			for _, id := range ids {
				perNode[id] = append(perNode[id], stamped{r, epochs[i]})
			}
		}
		// Clear the node's current storage for this projection.
		var drop []string
		for _, cr := range mgr.Containers() {
			drop = append(drop, cr.Meta.ID)
		}
		if err := mgr.Remove(drop...); err != nil {
			return err
		}
		mgr.WOS().DrainUpTo(types.MaxEpoch)
	}
	for id, st := range perNode {
		n := c.nodes[id]
		if !n.Up() {
			continue
		}
		mgr, err := n.Mgr(p, c.ManagerOpts())
		if err != nil {
			return err
		}
		rows := make([]types.Row, len(st))
		epochs := make([]types.Epoch, len(st))
		for i := range st {
			rows[i], epochs[i] = st[i].row, st[i].epoch
		}
		if err := writeRefreshedContainer(mgr, p, rows, epochs); err != nil {
			return err
		}
	}
	return nil
}

// Backup snapshots every node's storage via hard links (paper §5.2): data
// files cannot vanish while the backup image is copied away.
func (c *Cluster) Backup(destDir string) error {
	for _, n := range c.UpNodes() {
		n.mu.RLock()
		mgrs := make(map[string]*storage.Manager, len(n.mgrs))
		for k, v := range n.mgrs {
			mgrs[k] = v
		}
		n.mu.RUnlock()
		for pname, mgr := range mgrs {
			dst := filepath.Join(destDir, n.Name, pname)
			if err := mgr.SnapshotHardlink(dst); err != nil {
				return err
			}
		}
	}
	return nil
}
