package storage

import (
	"cmp"
	"slices"

	"repro/internal/vector"
)

// The write path shared by bulk load, moveout and mergeout: rows arrive as
// typed columns, are split by Placement into one group per container,
// and each group is written by WriteSorted: a stable permutation sort on
// the sort-key columns, then a block-at-a-time gather into the writer.

// Placement is the container a row belongs in: its partition key ("" when
// the table is unpartitioned) and its intra-node local segment.
type Placement struct {
	Partition    string
	LocalSegment int
}

// Placer returns the placement of each of the n rows of a projection's
// columns.
type Placer func(cols []*vector.Vector, n int) ([]Placement, error)

// PlacedRows is one group of rows that share a placement.
type PlacedRows struct {
	Placement
	Rows []int
}

// GroupByPlacement splits the rows listed in sel (every row of pl when sel
// is nil) by placement. Groups come in (partition, local segment) order;
// each keeps its rows in input order.
func GroupByPlacement(pl []Placement, sel []int) []PlacedRows {
	n := len(pl)
	if sel != nil {
		n = len(sel)
	}
	row := func(i int) int {
		if sel == nil {
			return i
		}
		return sel[i]
	}
	// One pass numbers the groups and counts their rows; the second fills
	// exactly sized row lists.
	var groups []PlacedRows
	var counts []int
	index := map[Placement]int{}
	of := make([]int32, n)
	last := -1
	for i := 0; i < n; i++ {
		p := pl[row(i)]
		// Placements come in runs: skip the map while the run lasts.
		if last < 0 || groups[last].Placement != p {
			g, ok := index[p]
			if !ok {
				g = len(groups)
				index[p] = g
				groups = append(groups, PlacedRows{Placement: p})
				counts = append(counts, 0)
			}
			last = g
		}
		of[i] = int32(last)
		counts[last]++
	}
	for g := range groups {
		groups[g].Rows = make([]int, 0, counts[g])
	}
	for i, g := range of {
		groups[g].Rows = append(groups[g].Rows, row(i))
	}
	slices.SortFunc(groups, func(a, b PlacedRows) int {
		if c := cmp.Compare(a.Partition, b.Partition); c != 0 {
			return c
		}
		return cmp.Compare(a.LocalSegment, b.LocalSegment)
	})
	return groups
}

// WriteSorted writes the rows listed in sel (every row when sel is nil) of
// the flat, equal-length columns cols as a new container at dir, ordered
// stably by the sortKey columns: rows with equal keys keep their order in
// sel. cols align with meta.Cols. It returns the written order: output row
// i is input row perm[i].
func WriteSorted(dir string, meta *ContainerMeta, cols []*vector.Vector, sel []int, sortKey []int, opts WriterOpts) ([]int, error) {
	perm := vector.SortPerm(cols, sortKey, sel)
	w, err := NewContainerWriter(dir, meta, opts)
	if err != nil {
		return nil, err
	}
	block := make([]*vector.Vector, len(cols))
	for off := 0; off < len(perm); off += w.blockRows {
		idx := perm[off:min(off+w.blockRows, len(perm))]
		for c, col := range cols {
			block[c] = col.Gather(idx)
		}
		if err := w.AppendColumns(block); err != nil {
			w.Abort()
			return nil, err
		}
	}
	if _, err := w.Close(); err != nil {
		return nil, err
	}
	return perm, nil
}
