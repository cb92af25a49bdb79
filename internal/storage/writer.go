package storage

import (
	"bufio"
	"fmt"
	"os"

	"repro/internal/encoding"
	"repro/internal/types"
	"repro/internal/vector"
)

// ContainerWriter streams sorted columns into a new ROS container
// directory. The caller is responsible for sort order (WriteSorted sorts
// before writing) and for supplying the implicit epoch column if desired.
//
// The container is written into a temporary directory and atomically renamed
// into place on Close, so a crash mid-write never leaves a half-container
// visible — rollback is "simply discarding any ROS container ... created by
// the transaction" (paper §5).
type ContainerWriter struct {
	meta     *ContainerMeta
	finalDir string
	tmpDir   string

	blockRows int
	files     []*os.File
	bufs      []*bufio.Writer
	offsets   []int64
	pidxBufs  [][]byte
	pending   []*vector.Vector // per-column accumulation toward a block
	flushed   []int64          // per-column rows already written to blocks
	rows      int64
	closed    bool
}

// WriterOpts configures container writing.
type WriterOpts struct {
	BlockRows int // values per block; DefaultBlockRows if 0
}

// NewContainerWriter creates a writer for a container that will appear at
// dir once Close succeeds. The meta's RowCount and SizeBytes are filled in
// by Close.
func NewContainerWriter(dir string, meta *ContainerMeta, opts WriterOpts) (*ContainerWriter, error) {
	if opts.BlockRows <= 0 {
		opts.BlockRows = DefaultBlockRows
	}
	tmp := dir + ".tmp"
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	w := &ContainerWriter{
		meta:      meta,
		finalDir:  dir,
		tmpDir:    tmp,
		blockRows: opts.BlockRows,
		files:     make([]*os.File, len(meta.Cols)),
		bufs:      make([]*bufio.Writer, len(meta.Cols)),
		offsets:   make([]int64, len(meta.Cols)),
		pidxBufs:  make([][]byte, len(meta.Cols)),
		pending:   make([]*vector.Vector, len(meta.Cols)),
		flushed:   make([]int64, len(meta.Cols)),
	}
	for i, c := range meta.Cols {
		f, err := os.Create(meta.dataPath(tmp, i))
		if err != nil {
			w.abort()
			return nil, err
		}
		w.files[i] = f
		w.bufs[i] = bufio.NewWriterSize(f, 1<<16)
		w.pending[i] = vector.New(c.Typ, opts.BlockRows)
	}
	return w, nil
}

// AppendColumns adds column vectors (RLE ones are expanded) of equal
// length. Full blocks are encoded straight from the caller's columns; only
// a trailing partial block is copied, to wait for the next append.
func (w *ContainerWriter) AppendColumns(cols []*vector.Vector) error {
	if len(cols) != len(w.meta.Cols) {
		return fmt.Errorf("storage: got %d cols, container expects %d", len(cols), len(w.meta.Cols))
	}
	flat := make([]*vector.Vector, len(cols))
	for c, col := range cols {
		flat[c] = col.Expand()
		if flat[c].Len() != flat[0].Len() {
			return fmt.Errorf("storage: ragged columns (%d vs %d)", flat[c].Len(), flat[0].Len())
		}
	}
	n := flat[0].Len()
	w.rows += int64(n)
	off := 0
	if w.pending[0].PhysLen() > 0 {
		// Top up the pending block first.
		off = min(n, w.blockRows-w.pending[0].PhysLen())
		for c, col := range flat {
			w.pending[c].AppendFrom(col.Slice(0, off), nil)
		}
		if err := w.flushFullBlocks(false); err != nil {
			return err
		}
	}
	for ; n-off >= w.blockRows; off += w.blockRows {
		for c, col := range flat {
			if err := w.writeBlock(c, col.Slice(off, off+w.blockRows)); err != nil {
				return err
			}
		}
	}
	if off < n {
		for c, col := range flat {
			w.pending[c].AppendFrom(col.Slice(off, n), nil)
		}
	}
	return nil
}

// flushFullBlocks writes the pending rows as one block once they fill it,
// or whatever is pending when final. Pending never exceeds one block.
func (w *ContainerWriter) flushFullBlocks(final bool) error {
	n := w.pending[0].PhysLen()
	if n == 0 || (n < w.blockRows && !final) {
		return nil
	}
	for c, p := range w.pending {
		if err := w.writeBlock(c, p); err != nil {
			return err
		}
		// The encoded block copied everything it keeps: reuse the buffers.
		p.Ints, p.Floats, p.Strs, p.Nulls = p.Ints[:0], p.Floats[:0], p.Strs[:0], nil
	}
	return nil
}

func (w *ContainerWriter) writeBlock(c int, block *vector.Vector) error {
	enc, err := encoding.EncodeBlock(w.meta.Cols[c].Enc, block)
	if err != nil {
		return fmt.Errorf("storage: column %s: %w", w.meta.Cols[c].Name, err)
	}
	mn, mx, ok := block.MinMax()
	if !ok {
		mn, mx = types.NewNull(block.Typ), types.NewNull(block.Typ)
	}
	firstPos := w.flushed[c]
	e := PidxEntry{
		Offset:   w.offsets[c],
		Length:   int64(len(enc)),
		FirstPos: firstPos,
		RowCount: int64(block.PhysLen()),
		Min:      mn,
		Max:      mx,
	}
	w.pidxBufs[c] = appendPidxEntry(w.pidxBufs[c], &e)
	if _, err := w.bufs[c].Write(enc); err != nil {
		return err
	}
	w.offsets[c] += int64(len(enc))
	w.flushed[c] += int64(block.PhysLen())
	return nil
}

// Close flushes remaining rows, writes position indexes and metadata, and
// atomically publishes the container directory. On error the temporary
// directory is removed.
func (w *ContainerWriter) Close() (*ContainerMeta, error) {
	if w.closed {
		return w.meta, nil
	}
	w.closed = true
	if err := w.flushFullBlocks(true); err != nil {
		w.abort()
		return nil, err
	}
	var total int64
	for c := range w.meta.Cols {
		if err := w.bufs[c].Flush(); err != nil {
			w.abort()
			return nil, err
		}
		if err := w.files[c].Close(); err != nil {
			w.abort()
			return nil, err
		}
		if err := os.WriteFile(w.meta.pidxPath(w.tmpDir, c), w.pidxBufs[c], 0o644); err != nil {
			w.abort()
			return nil, err
		}
		total += w.offsets[c]
	}
	w.meta.RowCount = w.rows
	w.meta.SizeBytes = total
	if err := writeMeta(w.tmpDir, w.meta); err != nil {
		w.abort()
		return nil, err
	}
	if err := os.Rename(w.tmpDir, w.finalDir); err != nil {
		w.abort()
		return nil, err
	}
	return w.meta, nil
}

// Abort discards the container without publishing it.
func (w *ContainerWriter) Abort() {
	if w.closed {
		return
	}
	w.closed = true
	w.abort()
}

func (w *ContainerWriter) abort() {
	for _, f := range w.files {
		if f != nil {
			f.Close()
		}
	}
	os.RemoveAll(w.tmpDir)
}

// WriteContainerFromBatch is a convenience that writes a whole in-memory
// batch as one container.
func WriteContainerFromBatch(dir string, meta *ContainerMeta, b *vector.Batch, opts WriterOpts) (*ContainerMeta, error) {
	w, err := NewContainerWriter(dir, meta, opts)
	if err != nil {
		return nil, err
	}
	if err := w.AppendColumns(b.Flatten().Cols); err != nil {
		w.Abort()
		return nil, err
	}
	return w.Close()
}
