package storage

import "fmt"

// Batch is a column-major block of rows: Cols[c][r] is column c of row
// r. The SQL executor's vectorized operators pass batches between each
// other instead of materializing one []Row per operator, and bind
// expression evaluation directly to the column slices — one batch
// allocation is amortized over every row it carries.
//
// The row count is tracked separately from the column slice lengths so
// operators can compact a batch in place (filtering) without
// re-slicing every column: readers must use Len(), not len(Cols[c]).
type Batch struct {
	// Cols holds one value slice per column. All columns carry at
	// least Len() values.
	Cols [][]Value
	n    int
}

// NewBatch returns an empty batch with the given column count.
func NewBatch(width int) *Batch {
	b := &Batch{}
	b.Reset(width)
	return b
}

// Reset empties the batch and reshapes it to width columns, keeping
// the column backing arrays for reuse.
func (b *Batch) Reset(width int) {
	if cap(b.Cols) < width {
		old := b.Cols
		b.Cols = make([][]Value, width)
		copy(b.Cols, old)
	} else {
		b.Cols = b.Cols[:width]
	}
	for i := range b.Cols {
		b.Cols[i] = b.Cols[i][:0]
	}
	b.n = 0
}

// Len returns the number of rows in the batch.
func (b *Batch) Len() int { return b.n }

// SetLen declares the row count after the caller has written the
// column slices directly (e.g. in-place compaction).
func (b *Batch) SetLen(n int) { b.n = n }

// Width returns the number of columns.
func (b *Batch) Width() int { return len(b.Cols) }

// PushRow appends the columns cols of one row-major row; the other
// columns of the batch stay empty. A pruned batch is read only at the
// columns it was filled at.
func (b *Batch) PushRow(row Row, cols []int) {
	for _, c := range cols {
		b.Cols[c] = append(b.Cols[c], row[c])
	}
	b.n++
}

// Value returns column col of row r.
func (b *Batch) Value(col, r int) Value { return b.Cols[col][r] }

// BatchPool recycles batches within one executor. Get and Put follow
// the usual free-list discipline; a batch obtained from Get is reused
// storage, not a fresh allocation, so per-iteration Get/Put cycles do
// not churn the garbage collector.
type BatchPool struct {
	free []*Batch
}

// Get returns an empty batch with the given width, reusing a released
// batch when one is available.
func (p *BatchPool) Get(width int) *Batch {
	if n := len(p.free); n > 0 {
		b := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		b.Reset(width)
		return b
	}
	return NewBatch(width)
}

// Put releases a batch back to the pool. The caller must not use b
// afterwards.
func (p *BatchPool) Put(b *Batch) {
	if b == nil {
		return
	}
	p.free = append(p.free, b)
}

// BatchScanner streams the visible rows of one table in insertion
// order, batch-at-a-time. It pins the table and its version count when
// created; each Next takes the table read lock, checks visibility and
// copies the scanned columns of the visible rows straight into the
// batch, so a full scan allocates nothing per row and copies no column
// the reader does not ask for. Rows appended after creation are not
// seen (they belong to later transactions, or to this one's later
// writes); rows this transaction deletes after creation are skipped.
//
// Holding positions across Next calls is safe because vacuum, the only
// operation that moves versions, runs only while no transaction is
// active, and the scanner's transaction stays active until it finishes.
// Next on a finished transaction returns ErrTxDone.
type BatchScanner struct {
	tx    *Tx
	t     *table
	width int
	cols  []int // sorted ordinals Next fills
	end   int   // version count pinned at creation
	pos   int
}

// NewBatchScanner starts a batched scan of tableName that fills the
// columns at the sorted ordinals cols. A nil cols scans every column:
// it stands for the full ordinal list.
func (tx *Tx) NewBatchScanner(tableName string, cols []int) (*BatchScanner, error) {
	if err := tx.check(); err != nil {
		return nil, err
	}
	t, err := tx.e.getTable(tableName)
	if err != nil {
		return nil, err
	}
	tx.e.statsReads.Add(1)
	t.mu.RLock()
	end := len(t.versions)
	t.mu.RUnlock()
	width := len(t.schema.Columns)
	if cols == nil {
		cols = make([]int, width)
		for i := range cols {
			cols[i] = i
		}
	}
	return &BatchScanner{tx: tx, t: t, width: width, cols: cols, end: end}, nil
}

// Width returns the column count of the scanned table.
func (s *BatchScanner) Width() int { return s.width }

// Next resets b to the table width and fills the scanned columns of up
// to max rows. It returns the number of rows delivered; 0 means the
// scan is done.
// The values in b are shared with the storage layer and must not be
// mutated.
func (s *BatchScanner) Next(b *Batch, max int) (int, error) {
	if err := s.tx.check(); err != nil {
		return 0, err
	}
	b.Reset(s.width)
	t, tx := s.t, s.tx
	t.mu.RLock()
	defer t.mu.RUnlock()
	for b.n < max && s.pos < s.end {
		if err := tx.stepCtx(s.pos); err != nil {
			return 0, err
		}
		v := &t.versions[s.pos]
		s.pos++
		if tx.e.visible(v, tx.snap, tx.id) {
			b.PushRow(v.row, s.cols)
		}
	}
	return b.n, nil
}

// ScanBatches visits every column of every visible row of the table
// through a reused batch of at most size rows per callback. The batch
// is only valid for the duration of fn; fn must copy anything it keeps.
func (tx *Tx) ScanBatches(tableName string, size int, fn func(*Batch) error) error {
	if size <= 0 {
		return fmt.Errorf("storage: ScanBatches size must be positive, got %d", size)
	}
	s, err := tx.NewBatchScanner(tableName, nil)
	if err != nil {
		return err
	}
	b := NewBatch(s.width)
	for {
		n, err := s.Next(b, size)
		if err != nil {
			return err
		}
		if n == 0 {
			return nil
		}
		if err := fn(b); err != nil {
			return err
		}
	}
}
