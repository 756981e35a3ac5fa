package storage

import (
	"context"
	"testing"
)

func TestBatchPushAndCompact(t *testing.T) {
	b := NewBatch(2)
	if b.Width() != 2 || b.Len() != 0 {
		t.Fatalf("fresh batch: width=%d len=%d", b.Width(), b.Len())
	}
	both := []int{0, 1}
	b.PushRow(Row{int64(1), "a"}, both)
	b.PushRow(Row{int64(2), "b"}, both)
	b.PushRow(Row{int64(3), "c"}, both)
	if b.Len() != 3 {
		t.Fatalf("Len = %d, want 3", b.Len())
	}
	if got := b.Value(1, 2); got != "c" {
		t.Fatalf("Value(1,2) = %v, want c", got)
	}
	if b.Value(0, 1) != int64(2) || b.Value(1, 1) != "b" {
		t.Fatalf("row 1 = %v, %v", b.Value(0, 1), b.Value(1, 1))
	}

	// A pruned push fills only the listed columns.
	p := NewBatch(2)
	p.PushRow(Row{int64(9), "z"}, []int{1})
	if p.Len() != 1 || len(p.Cols[0]) != 0 || p.Value(1, 0) != "z" {
		t.Fatalf("pruned push: len=%d cols=%v", p.Len(), p.Cols)
	}

	// In-place compaction: keep rows 0 and 2 and shrink via SetLen.
	// Column slices stay full length; readers must honor Len().
	for c := range b.Cols {
		b.Cols[c][1] = b.Cols[c][2]
	}
	b.SetLen(2)
	if b.Len() != 2 || b.Value(1, 1) != "c" {
		t.Fatalf("after compaction: len=%d val=%v", b.Len(), b.Value(1, 1))
	}

	// Reset keeps backing arrays but empties and reshapes.
	b.Reset(3)
	if b.Width() != 3 || b.Len() != 0 {
		t.Fatalf("after Reset(3): width=%d len=%d", b.Width(), b.Len())
	}
}

func TestBatchPoolRecycles(t *testing.T) {
	var p BatchPool
	a := p.Get(2)
	a.PushRow(Row{int64(1), "x"}, []int{0, 1})
	p.Put(a)
	b := p.Get(4)
	if b != a {
		t.Fatal("pool did not hand back the released batch")
	}
	if b.Width() != 4 || b.Len() != 0 {
		t.Fatalf("recycled batch not reset: width=%d len=%d", b.Width(), b.Len())
	}
	p.Put(nil) // must be a no-op: the free list stays empty
	if got := p.Get(1); got == nil || got == b || got.Width() != 1 {
		t.Fatalf("Get after Put(nil) = %v (want a fresh width-1 batch)", got)
	}
}

func TestBatchScannerStreamsSnapshot(t *testing.T) {
	e := newTestEngine(t)
	rows := make([]Row, 0, 10)
	for i := 0; i < 10; i++ {
		rows = append(rows, Row{int64(i), "u", int64(20 + i), true})
	}
	mustInsert(t, e, "users", rows...)

	err := e.View(func(tx *Tx) error {
		s, err := tx.NewBatchScanner("users", nil)
		if err != nil {
			return err
		}
		if s.Width() != 4 {
			t.Fatalf("Width = %d, want 4", s.Width())
		}
		b := NewBatch(s.Width())
		var got []int64
		for {
			n, err := s.Next(b, 3)
			if err != nil {
				return err
			}
			if n == 0 {
				break
			}
			if n > 3 || b.Len() != n {
				t.Fatalf("Next returned n=%d, batch len=%d", n, b.Len())
			}
			for r := 0; r < b.Len(); r++ {
				got = append(got, b.Value(0, r).(int64))
			}
		}
		if len(got) != 10 {
			t.Fatalf("scanned %d rows, want 10", len(got))
		}
		for i, id := range got {
			if id != int64(i) {
				t.Fatalf("row %d: id %d (insertion order broken)", i, id)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestBatchScannerFillsListedColumns: a scanner built with a column
// list fills those columns only, for every visible row.
func TestBatchScannerFillsListedColumns(t *testing.T) {
	e := newTestEngine(t)
	mustInsert(t, e, "users", Row{int64(1), "a", int64(30), true}, Row{int64(2), "b", int64(40), false})
	err := e.View(func(tx *Tx) error {
		s, err := tx.NewBatchScanner("users", []int{0, 2})
		if err != nil {
			return err
		}
		b := NewBatch(s.Width())
		n, err := s.Next(b, 10)
		if err != nil {
			return err
		}
		if n != 2 || len(b.Cols[1]) != 0 || len(b.Cols[3]) != 0 {
			t.Fatalf("n=%d, unlisted columns filled: %v", n, b.Cols)
		}
		if b.Value(0, 1) != int64(2) || b.Value(2, 1) != int64(40) {
			t.Fatalf("row 1 = %v, %v", b.Value(0, 1), b.Value(2, 1))
		}
		none, err := tx.NewBatchScanner("users", []int{})
		if err != nil {
			return err
		}
		if n, err := none.Next(b, 10); err != nil || n != 2 || len(b.Cols[0]) != 0 {
			t.Fatalf("empty column list: n=%d err=%v cols=%v", n, err, b.Cols)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScanBatchesMatchesScan(t *testing.T) {
	e := newTestEngine(t)
	rows := make([]Row, 0, 7)
	for i := 0; i < 7; i++ {
		rows = append(rows, Row{int64(i), "u", nil, true})
	}
	mustInsert(t, e, "users", rows...)

	err := e.View(func(tx *Tx) error {
		if err := tx.ScanBatches("users", 0, func(*Batch) error { return nil }); err == nil {
			t.Fatal("ScanBatches accepted size 0")
		}
		var viaBatch []int64
		if err := tx.ScanBatches("users", 2, func(b *Batch) error {
			for r := 0; r < b.Len(); r++ {
				viaBatch = append(viaBatch, b.Value(0, r).(int64))
			}
			return nil
		}); err != nil {
			return err
		}
		var viaScan []int64
		if err := tx.Scan("users", func(_ RID, r Row) bool {
			viaScan = append(viaScan, r[0].(int64))
			return true
		}); err != nil {
			return err
		}
		if len(viaBatch) != len(viaScan) {
			t.Fatalf("batch scan saw %d rows, row scan %d", len(viaBatch), len(viaScan))
		}
		for i := range viaBatch {
			if viaBatch[i] != viaScan[i] {
				t.Fatalf("row %d: batch %d vs scan %d", i, viaBatch[i], viaScan[i])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBatchScannerHonorsCancel(t *testing.T) {
	e := newTestEngine(t)
	rows := make([]Row, 0, 3*ctxCheckEvery)
	for i := 0; i < 3*ctxCheckEvery; i++ {
		rows = append(rows, Row{int64(i), "u", nil, true})
	}
	mustInsert(t, e, "users", rows...)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := e.ViewCtx(ctx, func(tx *Tx) error {
		return tx.ScanBatches("users", 64, func(*Batch) error { return nil })
	})
	if err == nil {
		t.Fatal("cancelled batch scan returned nil error")
	}
}
