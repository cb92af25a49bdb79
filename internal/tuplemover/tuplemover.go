// Package tuplemover implements the automatic storage-rearrangement service
// of paper §4: moveout (asynchronously draining the WOS into new ROS
// containers) and mergeout (merging small ROS containers into exponentially
// larger strata, eliding rows deleted before the Ancient History Mark).
//
// Design points carried over from the paper:
//
//   - WOS and ROS data are never intermixed in one operation, strongly
//     bounding how many times a tuple is (re)merged;
//   - output containers land in a stratum at least one larger than any
//     input, so a tuple is rewritten at most once per stratum;
//   - containers never exceed a configured maximum size, bounding the
//     number of strata and thus of merges;
//   - merges preserve partition and local-segment boundaries;
//   - operations are per-node and never centrally coordinated.
package tuplemover

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"repro/internal/dc"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/types"
	"repro/internal/vector"
)

// Config wires a tuple mover to one projection's storage on one node.
type Config struct {
	Projection string
	Mgr        *storage.Manager
	Epochs     *txn.EpochManager

	// SortKey lists projection column indexes forming the sort order.
	SortKey []int
	// Encodings maps column name to its storage spec (Auto when absent).
	Encodings map[string]storage.ColumnSpec
	// Place assigns rows their partition key and local segment (every row
	// goes to partition "", local segment 0 when nil).
	Place storage.Placer

	// BlockRows overrides the encoded block size (tests).
	BlockRows int
	// StrataBase is the size (bytes) of the smallest mergeout stratum.
	StrataBase int64
	// MinMergeCount is the minimum number of same-stratum containers that
	// triggers a mergeout (default 2).
	MinMergeCount int
	// Collector receives moveout/mergeout events for the Data Collector's
	// v_monitor.dc_tuple_mover_events stream. Nil disables recording.
	Collector *dc.Collector
}

// TupleMover runs moveout and mergeout for one projection on one node.
// A mutex serializes cycles: the tuple mover's T lock is compatible with
// itself, so two concurrent RunTupleMover calls could otherwise merge the
// same inputs twice.
type TupleMover struct {
	mu  sync.Mutex
	cfg Config
}

// New validates the configuration and returns a tuple mover.
func New(cfg Config) (*TupleMover, error) {
	if cfg.Mgr == nil || cfg.Epochs == nil {
		return nil, fmt.Errorf("tuplemover: Mgr and Epochs are required")
	}
	if cfg.StrataBase <= 0 {
		cfg.StrataBase = 4 << 10
	}
	if cfg.MinMergeCount < 2 {
		cfg.MinMergeCount = 2
	}
	if cfg.Place == nil {
		cfg.Place = func(_ []*vector.Vector, n int) ([]storage.Placement, error) {
			return make([]storage.Placement, n), nil
		}
	}
	return &TupleMover{cfg: cfg}, nil
}

// Moveout drains every WOS row committed at or before the current epoch into
// new ROS containers (one per partition x local segment), translates WOS
// delete vectors to container positions, persists them, and advances the
// projection's Last Good Epoch. It returns the number of rows moved.
//
// Moveout runs concurrently with inserts (T and I locks are compatible) and
// lock-free readers: it snapshots the WOS, writes containers outside any
// lock, then publishes containers + translated delete vectors and drains
// the snapshotted WOS prefix in one atomic Manager.CommitMoveout — a reader
// always sees each row in exactly one store.
func (tm *TupleMover) Moveout() (int, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.moveout()
}

func (tm *TupleMover) moveout() (int, error) {
	cfg := &tm.cfg
	start := time.Now()
	bound := cfg.Epochs.Current()
	rows := cfg.Mgr.WOS().Snapshot(bound)
	if len(rows) == 0 {
		cfg.Epochs.SetLGE(cfg.Projection, bound)
		return 0, nil
	}
	// The snapshot as typed columns, the epoch column last.
	batch := vector.NewBatchForSchema(cfg.Mgr.Schema(), len(rows))
	epochs := make([]int64, len(rows))
	for i, r := range rows {
		batch.AppendRow(r.Row)
		epochs[i] = int64(r.Epoch)
	}
	place, err := cfg.Place(batch.Cols, len(rows))
	if err != nil {
		return 0, fmt.Errorf("tuplemover: partition expression: %w", err)
	}

	// WOS delete vectors, indexed by position for translation.
	wosDVs := cfg.Mgr.DVs().Get(storage.WOSTarget)
	dvByPos := make(map[int64]types.Epoch, len(wosDVs))
	for _, e := range wosDVs {
		dvByPos[e.Pos] = e.Epoch
	}
	moved := 0
	translated := map[int64]bool{}
	commit := storage.MoveoutCommit{DVs: map[string][]storage.DVEntry{}, DrainThrough: -1}
	var writtenDirs []string
	cleanup := func() {
		for _, d := range writtenDirs {
			os.RemoveAll(d)
		}
	}
	for _, r := range rows {
		if r.Pos > commit.DrainThrough {
			commit.DrainThrough = r.Pos
		}
	}
	cols := append(batch.Cols, vector.NewFromInts(types.Int64, epochs))
	for _, g := range storage.GroupByPlacement(place, nil) {
		minE, maxE := rows[g.Rows[0]].Epoch, rows[g.Rows[0]].Epoch
		for _, i := range g.Rows {
			minE, maxE = min(minE, rows[i].Epoch), max(maxE, rows[i].Epoch)
		}
		id, dir := cfg.Mgr.NewContainerID()
		meta := &storage.ContainerMeta{
			ID:           id,
			Projection:   cfg.Projection,
			Cols:         cfg.Mgr.StoredColumns(cfg.Encodings),
			Partition:    g.Partition,
			LocalSegment: g.LocalSegment,
			MinEpoch:     minE,
			MaxEpoch:     maxE,
		}
		// A stable sort keeps equal keys in WOS order, so epoch runs stay long.
		perm, err := storage.WriteSorted(dir, meta, cols, g.Rows, cfg.SortKey, storage.WriterOpts{BlockRows: cfg.BlockRows})
		if err != nil {
			cleanup()
			return 0, err
		}
		writtenDirs = append(writtenDirs, dir)
		var dvEntries []storage.DVEntry
		if len(dvByPos) > 0 {
			for pos, i := range perm {
				if de, ok := dvByPos[rows[i].Pos]; ok {
					dvEntries = append(dvEntries, storage.DVEntry{Pos: int64(pos), Epoch: de})
					translated[rows[i].Pos] = true
				}
			}
		}
		commit.Metas = append(commit.Metas, meta)
		if len(dvEntries) > 0 {
			commit.DVs[id] = dvEntries
		}
		moved += len(g.Rows)
	}
	// Retain only WOS delete vectors that referenced undrained rows. The
	// X/T lock conflict guarantees no delete commits during a mover cycle,
	// so the set computed here is still exact at commit time.
	for _, e := range wosDVs {
		if !translated[e.Pos] {
			commit.WOSRemaining = append(commit.WOSRemaining, e)
		}
	}
	if err := cfg.Mgr.CommitMoveout(commit); err != nil {
		cleanup()
		return 0, err
	}
	for id := range commit.DVs {
		if err := cfg.Mgr.DVs().Persist(id); err != nil {
			return moved, err
		}
	}
	cfg.Epochs.SetLGE(cfg.Projection, bound)
	// Only cycles that actually wrote containers are recorded: an idle
	// mover polling an empty WOS would otherwise flood the ring.
	cfg.Collector.RecordMover(dc.MoverEvent{
		Op:         "moveout",
		Projection: cfg.Projection,
		Containers: len(commit.Metas),
		Rows:       int64(moved),
		Duration:   time.Since(start),
	})
	return moved, nil
}

// MoveoutDeleteVectors persists in-memory (DVWOS) delete vectors to DVROS
// files; the paper moves delete vectors through the same WOS->ROS lifecycle
// as data.
func (tm *TupleMover) MoveoutDeleteVectors() error {
	dvs := tm.cfg.Mgr.DVs()
	for _, target := range dvs.MemTargets() {
		if target == storage.WOSTarget {
			continue // translated by Moveout, not persisted as-is
		}
		if err := dvs.Persist(target); err != nil {
			return err
		}
	}
	return nil
}

// Stratum returns the exponential stratum index of a container size:
// sizes in [0, base) are stratum 0, [base, 2*base) stratum 1, and so on.
func (tm *TupleMover) Stratum(size int64) int {
	s := 0
	for size >= tm.cfg.StrataBase {
		size /= 2
		s++
	}
	return s
}

// mergeGroup identifies containers eligible to merge together: same
// partition and local segment (boundaries are preserved, §4).
type mergeGroup struct {
	part string
	seg  int
}

// Mergeout performs one round of merging: within each (partition, local
// segment) group it finds the lowest stratum holding at least MinMergeCount
// containers and merges those containers into one, eliding rows deleted at
// or before the AHM. Returns the number of merge operations performed.
func (tm *TupleMover) Mergeout() (int, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	return tm.mergeout()
}

func (tm *TupleMover) mergeout() (int, error) {
	cfg := &tm.cfg
	ahm := cfg.Epochs.AHM()
	groups := map[mergeGroup][]*storage.ContainerReader{}
	for _, r := range cfg.Mgr.Containers() {
		k := mergeGroup{r.Meta.Partition, r.Meta.LocalSegment}
		groups[k] = append(groups[k], r)
	}
	gks := make([]mergeGroup, 0, len(groups))
	for k := range groups {
		gks = append(gks, k)
	}
	sort.Slice(gks, func(i, j int) bool {
		if gks[i].part != gks[j].part {
			return gks[i].part < gks[j].part
		}
		return gks[i].seg < gks[j].seg
	})
	merges := 0
	for _, k := range gks {
		inputs := tm.pickMergeInputs(groups[k])
		if len(inputs) < cfg.MinMergeCount {
			continue
		}
		if err := tm.mergeContainers(inputs, k.part, k.seg, ahm); err != nil {
			return merges, err
		}
		merges++
	}
	return merges, nil
}

// pickMergeInputs chooses the containers of the lowest stratum with at least
// MinMergeCount members, capping combined size at MaxROSBytes.
func (tm *TupleMover) pickMergeInputs(rs []*storage.ContainerReader) []*storage.ContainerReader {
	byStratum := map[int][]*storage.ContainerReader{}
	for _, r := range rs {
		s := tm.Stratum(r.Meta.SizeBytes)
		byStratum[s] = append(byStratum[s], r)
	}
	strata := make([]int, 0, len(byStratum))
	for s := range byStratum {
		strata = append(strata, s)
	}
	sort.Ints(strata)
	for _, s := range strata {
		cand := byStratum[s]
		if len(cand) < tm.cfg.MinMergeCount {
			continue
		}
		sort.Slice(cand, func(i, j int) bool { return cand[i].Meta.SizeBytes < cand[j].Meta.SizeBytes })
		var out []*storage.ContainerReader
		var total int64
		for _, r := range cand {
			if total+r.Meta.SizeBytes > tm.cfg.Mgr.MaxROSBytes() && len(out) >= tm.cfg.MinMergeCount {
				break
			}
			out = append(out, r)
			total += r.Meta.SizeBytes
		}
		if len(out) >= tm.cfg.MinMergeCount {
			return out
		}
	}
	return nil
}

// mergeContainers merges inputs into one container: their rows are read
// as columns in input order, rows deleted at or before the AHM are left
// out, and the rest are written sorted — stably, so rows with equal sort
// keys keep input-container order. Surviving delete vectors follow their
// rows to the output positions.
func (tm *TupleMover) mergeContainers(inputs []*storage.ContainerReader, part string, seg int, ahm types.Epoch) error {
	cfg := &tm.cfg
	start := time.Now()
	var inBytes, total int64
	for _, in := range inputs {
		inBytes += in.Meta.SizeBytes
		total += in.Meta.RowCount
	}
	specs := inputs[0].Meta.Cols
	cols := make([]*vector.Vector, len(specs))
	colIdx := make([]int, len(specs))
	for i, c := range specs {
		cols[i] = vector.New(c.Typ, int(total))
		colIdx[i] = i
	}
	sel := make([]int, 0, total)
	kept := map[int]types.Epoch{} // merged row -> epoch of a delete kept past the AHM
	var minE, maxE types.Epoch
	maxLevel := 0
	for _, in := range inputs {
		base := cols[0].PhysLen()
		if err := in.AppendAll(cols, colIdx); err != nil {
			return err
		}
		deleted := map[int]types.Epoch{}
		for _, e := range cfg.Mgr.DVs().Get(in.Meta.ID) {
			deleted[int(e.Pos)] = e.Epoch
		}
		for r := 0; r < cols[0].PhysLen()-base; r++ {
			if e, ok := deleted[r]; ok {
				if e <= ahm {
					// "Whenever the tuple mover observes a row deleted prior
					// to the AHM, it elides the row from the output" (§5.1).
					continue
				}
				kept[base+r] = e
			}
			sel = append(sel, base+r)
		}
		if minE == 0 || in.Meta.MinEpoch < minE {
			minE = in.Meta.MinEpoch
		}
		maxE = max(maxE, in.Meta.MaxEpoch)
		maxLevel = max(maxLevel, in.Meta.MergeLevel)
	}

	id, dir := cfg.Mgr.NewContainerID()
	meta := &storage.ContainerMeta{
		ID:           id,
		Projection:   cfg.Projection,
		Cols:         specs,
		Partition:    part,
		LocalSegment: seg,
		MinEpoch:     minE,
		MaxEpoch:     maxE,
		MergeLevel:   maxLevel + 1,
	}
	perm, err := storage.WriteSorted(dir, meta, cols, sel, cfg.SortKey, storage.WriterOpts{BlockRows: cfg.BlockRows})
	if err != nil {
		return err
	}
	var outDVs []storage.DVEntry
	if len(kept) > 0 {
		for pos, r := range perm {
			if e, ok := kept[r]; ok {
				outDVs = append(outDVs, storage.DVEntry{Pos: int64(pos), Epoch: e})
			}
		}
	}
	ids := make([]string, len(inputs))
	for i, in := range inputs {
		ids[i] = in.Meta.ID
	}
	// Publish the output (with its carried-over delete vectors) and retire
	// the inputs in one atomic swap, so a concurrent scan view sees the
	// merged rows exactly once.
	if err := cfg.Mgr.SwapContainers(meta, outDVs, ids); err != nil {
		os.RemoveAll(dir)
		return err
	}
	if len(outDVs) > 0 {
		if err := cfg.Mgr.DVs().Persist(id); err != nil {
			return err
		}
	}
	cfg.Collector.RecordMover(dc.MoverEvent{
		Op:         "mergeout",
		Projection: cfg.Projection,
		Containers: len(inputs),
		Bytes:      inBytes,
		Duration:   time.Since(start),
	})
	return nil
}

// Run performs one tuple mover cycle: moveout, DV moveout, then repeated
// mergeout rounds until no more merges apply. It returns (rows moved out,
// merge operations performed).
func (tm *TupleMover) Run() (int, int, error) {
	tm.mu.Lock()
	defer tm.mu.Unlock()
	moved, err := tm.moveout()
	if err != nil {
		return moved, 0, err
	}
	if err := tm.MoveoutDeleteVectors(); err != nil {
		return moved, 0, err
	}
	totalMerges := 0
	for {
		n, err := tm.mergeout()
		if err != nil {
			return moved, totalMerges, err
		}
		if n == 0 {
			return moved, totalMerges, nil
		}
		totalMerges += n
	}
}
