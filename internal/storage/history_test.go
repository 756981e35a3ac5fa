package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// histEntry is one committed row of the history model.
type histEntry struct {
	v   int64
	rid RID
}

// histModel is the committed state of the kv table. Writers apply a
// transaction to it in the same critical section as its Commit, and
// readers copy it in the same critical section as their Begin, so each
// reader knows exactly the state its snapshot must show.
type histModel struct {
	mu   sync.Mutex
	rows map[int64]histEntry
}

func (m *histModel) begin(e *Engine) (*Tx, map[int64]histEntry) {
	m.mu.Lock()
	defer m.mu.Unlock()
	tx := e.Begin()
	cp := make(map[int64]histEntry, len(m.rows))
	for k, en := range m.rows {
		cp[k] = en
	}
	return tx, cp
}

// histOp is one write of a transaction, replayed into the model when
// the transaction commits.
type histOp struct {
	k   int64
	del bool
	en  histEntry
}

func histSchema(t testing.TB) *Schema {
	t.Helper()
	s, err := NewSchema("kv", []Column{
		{Name: "k", Type: TypeInt, NotNull: true},
		{Name: "v", Type: TypeInt},
	}, "k")
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// checkReader compares everything tx can read against want, the model
// state as of its Begin: a batched scan (yielding between batches so
// writers append, commit and abort underneath it), a row scan, a
// primary-key probe for every key of the key space, and a Get per RID.
func checkReader(tx *Tx, want map[int64]histEntry, keys int64) error {
	got := map[int64]int64{}
	collect := func(k, v int64) error {
		if _, dup := got[k]; dup {
			return fmt.Errorf("key %d seen twice", k)
		}
		got[k] = v
		return nil
	}
	same := func(how string) error {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d rows, want %d", how, len(got), len(want))
		}
		for k, en := range want {
			if v, ok := got[k]; !ok || v != en.v {
				return fmt.Errorf("%s: key %d = %d (present %v), want %d", how, k, v, ok, en.v)
			}
		}
		return nil
	}

	err := tx.ScanBatches("kv", 3, func(b *Batch) error {
		for r := 0; r < b.Len(); r++ {
			if err := collect(b.Value(0, r).(int64), b.Value(1, r).(int64)); err != nil {
				return err
			}
		}
		time.Sleep(20 * time.Microsecond)
		return nil
	})
	if err != nil {
		return fmt.Errorf("ScanBatches: %w", err)
	}
	if err := same("ScanBatches"); err != nil {
		return err
	}

	got = map[int64]int64{}
	var scanErr error
	if err := tx.Scan("kv", func(_ RID, row Row) bool {
		scanErr = collect(row[0].(int64), row[1].(int64))
		return scanErr == nil
	}); err != nil || scanErr != nil {
		return fmt.Errorf("Scan: %v %v", err, scanErr)
	}
	if err := same("Scan"); err != nil {
		return err
	}

	for k := int64(0); k < keys; k++ {
		hits := 0
		var v int64
		if err := tx.LookupEqual("kv", "kv_pkey", []Value{k}, func(_ RID, row Row) bool {
			hits++
			v = row[1].(int64)
			return true
		}); err != nil {
			return fmt.Errorf("LookupEqual(%d): %w", k, err)
		}
		en, ok := want[k]
		switch {
		case ok && (hits != 1 || v != en.v):
			return fmt.Errorf("LookupEqual(%d): %d hits, v=%d, want 1 hit v=%d", k, hits, v, en.v)
		case !ok && hits != 0:
			return fmt.Errorf("LookupEqual(%d): %d hits on an absent key", k, hits)
		}
	}

	for k, en := range want {
		row, err := tx.Get("kv", en.rid)
		if err != nil {
			return fmt.Errorf("Get(key %d rid %d): %w", k, en.rid, err)
		}
		if row[1].(int64) != en.v {
			return fmt.Errorf("Get(key %d): v=%d, want %d", k, row[1], en.v)
		}
	}
	return nil
}

// TestSnapshotHistoryConcurrent runs a seeded history against a durable
// engine: writers insert, delete, update and abort partway through
// while long-lived readers hold their snapshots open and checkpoints
// run underneath. Every reader must see exactly the committed state as
// of its Begin through every read path. Writers own disjoint key sets,
// so every write outcome is predictable and any conflict or duplicate
// error is a bug: in particular a key whose only version is an aborted
// insert must be free again at once.
func TestSnapshotHistoryConcurrent(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runSnapshotHistory(t, seed)
		})
	}
}

func runSnapshotHistory(t *testing.T, seed int64) {
	const (
		writers   = 2
		readers   = 2
		keys      = 48
		txsPerW   = 150
		abortRate = 5 // one in abortRate transactions rolls back
	)
	e, err := Open(Options{Dir: t.TempDir(), Sync: SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateTable(histSchema(t)); err != nil {
		t.Fatal(err)
	}
	model := &histModel{rows: map[int64]histEntry{}}

	var writersWG, bgWG sync.WaitGroup
	done := make(chan struct{})
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			rng := rand.New(rand.NewSource(seed*100 + int64(w)))
			mine := map[int64]histEntry{} // committed rows of this writer's keys
			var freed []int64             // keys last held by an aborted insert
			pick := func() int64 { return int64(rng.Intn(keys/writers)*writers + w) }
			for i := 0; i < txsPerW; i++ {
				tx := e.Begin()
				view := make(map[int64]histEntry, len(mine))
				for k, en := range mine {
					view[k] = en
				}
				var ops []histOp
				fail := func(format string, args ...any) {
					t.Errorf("writer %d tx %d: "+format, append([]any{w, i}, args...)...)
					tx.Rollback()
				}
				insert := func(k int64) bool {
					v := rng.Int63n(1000)
					rid, err := tx.Insert("kv", Row{k, v})
					if err != nil {
						fail("insert %d: %v", k, err)
						return false
					}
					view[k] = histEntry{v: v, rid: rid}
					ops = append(ops, histOp{k: k, en: view[k]})
					return true
				}
				ok := true
				if len(freed) > 0 {
					k := freed[len(freed)-1]
					freed = freed[:len(freed)-1]
					if _, taken := view[k]; !taken {
						ok = insert(k)
					}
				}
				for n := 1 + rng.Intn(4); ok && n > 0; n-- {
					k := pick()
					en, present := view[k]
					switch {
					case !present:
						ok = insert(k)
					default:
						if err := tx.DeleteRID("kv", en.rid); err != nil {
							fail("delete %d: %v", k, err)
							ok = false
							break
						}
						delete(view, k)
						ops = append(ops, histOp{k: k, del: true})
						if rng.Intn(2) == 0 { // an update: delete + insert
							ok = insert(k)
						}
					}
				}
				if !ok {
					return
				}
				if rng.Intn(abortRate) == 0 {
					tx.Rollback()
					for _, op := range ops {
						if _, committed := mine[op.k]; !op.del && !committed {
							freed = append(freed, op.k)
						}
					}
					continue
				}
				model.mu.Lock()
				err := tx.Commit()
				if err == nil {
					for _, op := range ops {
						if op.del {
							delete(model.rows, op.k)
							delete(mine, op.k)
						} else {
							model.rows[op.k] = op.en
							mine[op.k] = op.en
						}
					}
				}
				model.mu.Unlock()
				if err != nil {
					t.Errorf("writer %d tx %d: commit: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < readers; r++ {
		bgWG.Add(1)
		go func(r int) {
			defer bgWG.Done()
			for n := 0; ; n++ {
				select {
				case <-done:
					return
				default:
				}
				tx, want := model.begin(e)
				err := checkReader(tx, want, keys)
				tx.Rollback()
				if err != nil {
					t.Errorf("reader %d pass %d: %v", r, n, err)
					return
				}
			}
		}(r)
	}
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(time.Millisecond):
			}
			if err := e.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}()
	writersWG.Wait()
	close(done)
	bgWG.Wait()
	if t.Failed() {
		return
	}

	tx, want := model.begin(e)
	if err := checkReader(tx, want, keys); err != nil {
		t.Fatalf("final state: %v", err)
	}
	tx.Rollback()
	checkScannerSurvivesGrowthAndCheckpoint(t, e, model, keys)
}

// checkScannerSurvivesGrowthAndCheckpoint holds a batch scanner open
// across an append that reallocates the table's version slice and
// across a checkpoint, which must not vacuum while the scanner's
// transaction is active.
func checkScannerSurvivesGrowthAndCheckpoint(t *testing.T, e *Engine, model *histModel, keys int64) {
	t.Helper()
	tbl, err := e.getTable("kv")
	if err != nil {
		t.Fatal(err)
	}
	slots := func() (int, *version) {
		tbl.mu.RLock()
		defer tbl.mu.RUnlock()
		return len(tbl.versions), &tbl.versions[0]
	}
	tx, want := model.begin(e)
	defer tx.Rollback()
	sc, err := tx.NewBatchScanner("kv", nil)
	if err != nil {
		t.Fatal(err)
	}
	b := NewBatch(sc.Width())
	got := map[int64]int64{}
	take := func() int {
		n, err := sc.Next(b, 2)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < n; r++ {
			got[b.Value(0, r).(int64)] = b.Value(1, r).(int64)
		}
		return n
	}
	if take() == 0 {
		t.Fatal("empty first batch")
	}

	// An update committed under the scanner leaves a version that only
	// this reader still sees: a vacuum would be visible.
	var k int64 = -1
	for key := range want {
		k = key
		break
	}
	if k < 0 {
		t.Fatal("empty model")
	}
	if err := e.Update(func(w *Tx) error {
		_, err := w.UpdateRID("kv", want[k].rid, Row{k, want[k].v + 1})
		return err
	}); err != nil {
		t.Fatalf("update key %d: %v", k, err)
	}
	n0, first0 := slots()
	tbl.mu.RLock()
	grow := cap(tbl.versions) - len(tbl.versions) + 1
	tbl.mu.RUnlock()
	for i := 0; i < grow; i++ {
		if err := e.Update(func(w *Tx) error {
			_, err := w.Insert("kv", Row{keys + int64(i), int64(i)})
			return err
		}); err != nil {
			t.Fatal(err)
		}
	}
	if _, first := slots(); first == first0 {
		t.Fatal("appends did not reallocate the version slice")
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := slots(); n != n0+grow {
		t.Fatalf("checkpoint under an open scanner changed the slot count: %d, want %d", n, n0+grow)
	}
	for take() > 0 {
	}
	if len(got) != len(want) {
		t.Fatalf("scanner across growth and checkpoint: %d rows, want %d", len(got), len(want))
	}
	var missing []int64
	for k, en := range want {
		if v, ok := got[k]; !ok || v != en.v {
			missing = append(missing, k)
		}
	}
	sort.Slice(missing, func(i, j int) bool { return missing[i] < missing[j] })
	if len(missing) > 0 {
		t.Fatalf("scanner across growth and checkpoint: keys %v differ from the model", missing)
	}
	tx.Rollback()
	if _, err := sc.Next(b, 2); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Next after the transaction finished: %v, want ErrTxDone", err)
	}
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, _ := slots(); n >= n0+grow {
		t.Fatalf("quiescent checkpoint kept %d slots, want fewer than %d", n, n0+grow)
	}
}
