package storage

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
)

func kvSchema(t testing.TB, name string) *Schema {
	t.Helper()
	s, err := NewSchema(name, []Column{{Name: "k", Type: TypeInt}, {Name: "v", Type: TypeString}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newQuotaEngine(t *testing.T, tables ...string) *Engine {
	t.Helper()
	e := MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	for _, name := range tables {
		if err := e.CreateTable(kvSchema(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func insertN(e *Engine, table string, n int) error {
	return e.Update(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			if _, err := tx.Insert(table, Row{int64(i), "x"}); err != nil {
				return err
			}
		}
		return nil
	})
}

func liveRows(t *testing.T, e *Engine, table string) int {
	t.Helper()
	n, err := e.LiveRows(table)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// quotaState reads a quota's counters (zero values when the prefix has
// no quota).
func quotaState(e *Engine, prefix string) (live, reserved int) {
	e.mu.RLock()
	q := e.quotas[prefix]
	e.mu.RUnlock()
	if q == nil {
		return 0, 0
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.live, q.reserved
}

func TestRowQuotaCapsPrefixGroup(t *testing.T) {
	e := newQuotaEngine(t, "q_a", "q_b", "other")
	if err := insertN(e, "q_a", 2); err != nil {
		t.Fatal(err)
	}
	// Installing a cap counts the rows already there.
	e.SetRowQuota("Q_", 4)
	if live, _ := quotaState(e, "q_"); live != 2 {
		t.Fatalf("quota live after install = %d, want 2", live)
	}
	if err := insertN(e, "q_b", 2); err != nil {
		t.Fatal(err)
	}
	if err := insertN(e, "q_a", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("insert past cap: err = %v, want ErrQuota", err)
	}
	if err := insertN(e, "other", 10); err != nil {
		t.Fatalf("table outside the prefix is capped: %v", err)
	}
	// Raising the cap takes effect at the next insert; a multi-row
	// insert that does not fit fails as a whole.
	e.SetRowQuota("q_", 6)
	if err := insertN(e, "q_a", 3); !errors.Is(err, ErrQuota) {
		t.Fatalf("3 rows into 2 free slots: err = %v, want ErrQuota", err)
	}
	if got := liveRows(t, e, "q_a"); got != 2 {
		t.Fatalf("failed multi-row insert left q_a at %d rows, want 2", got)
	}
	if err := insertN(e, "q_a", 2); err != nil {
		t.Fatal(err)
	}
	// Dropping a table returns its rows to the group.
	if err := e.DropTable("q_b"); err != nil {
		t.Fatal(err)
	}
	if live, reserved := quotaState(e, "q_"); live != 4 || reserved != 0 {
		t.Fatalf("after drop: live=%d reserved=%d, want 4 and 0", live, reserved)
	}
	// A table created under the prefix joins the group.
	if err := e.CreateTable(kvSchema(t, "q_c")); err != nil {
		t.Fatal(err)
	}
	if err := insertN(e, "q_c", 3); !errors.Is(err, ErrQuota) {
		t.Fatalf("new member table: err = %v, want ErrQuota", err)
	}
	// Removing the cap lifts it.
	e.SetRowQuota("q_", 0)
	if err := insertN(e, "q_c", 3); err != nil {
		t.Fatalf("after removing the cap: %v", err)
	}
	if got := e.Stats().Rows; got != 4+3+10 {
		t.Fatalf("Stats().Rows = %d, want 17", got)
	}
}

func TestRowQuotaLongestPrefixGoverns(t *testing.T) {
	e := newQuotaEngine(t, "t_a__x", "t_a__b__x")
	e.SetRowQuota("t_a__", 1)
	e.SetRowQuota("t_a__b__", 3)
	if err := insertN(e, "t_a__b__x", 3); err != nil {
		t.Fatalf("inner group: %v", err)
	}
	if err := insertN(e, "t_a__x", 1); err != nil {
		t.Fatalf("outer group must not count the inner group's rows: %v", err)
	}
	e.SetRowQuota("t_a__b__", 0)
	if live, _ := quotaState(e, "t_a__"); live != 4 {
		t.Fatalf("outer group after inner cap removed: live=%d, want 4", live)
	}
}

func TestRowQuotaDeleteOffsetsInsertAtCap(t *testing.T) {
	e := newQuotaEngine(t, "q_a")
	e.SetRowQuota("q_", 2)
	if err := insertN(e, "q_a", 2); err != nil {
		t.Fatal(err)
	}
	var rids []RID
	e.View(func(tx *Tx) error {
		return tx.Scan("q_a", func(rid RID, _ Row) bool { rids = append(rids, rid); return true })
	})
	// UpdateRID is a delete plus an insert in one transaction.
	if err := e.Update(func(tx *Tx) error {
		_, err := tx.UpdateRID("q_a", rids[0], Row{int64(9), "y"})
		return err
	}); err != nil {
		t.Fatalf("update at cap: %v", err)
	}
	// A delete earlier in the transaction frees a slot for a later
	// insert, but only one.
	err := e.Update(func(tx *Tx) error {
		if err := tx.DeleteRID("q_a", rids[1]); err != nil {
			return err
		}
		if _, err := tx.Insert("q_a", Row{int64(1), "z"}); err != nil {
			return fmt.Errorf("offset insert: %w", err)
		}
		_, err := tx.Insert("q_a", Row{int64(2), "z"})
		return err
	})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("second insert after one delete: err = %v, want ErrQuota", err)
	}
	if got := liveRows(t, e, "q_a"); got != 2 {
		t.Fatalf("live rows = %d, want 2", got)
	}
}

func TestRowQuotaRollbackReleasesReservation(t *testing.T) {
	e := newQuotaEngine(t, "q_a")
	e.SetRowQuota("q_", 1)
	holder := e.Begin()
	if _, err := holder.Insert("q_a", Row{int64(1), "x"}); err != nil {
		t.Fatal(err)
	}
	// The open transaction holds the only slot.
	if err := insertN(e, "q_a", 1); !errors.Is(err, ErrQuota) {
		t.Fatalf("insert against a held slot: err = %v, want ErrQuota", err)
	}
	holder.Rollback()
	if _, reserved := quotaState(e, "q_"); reserved != 0 {
		t.Fatalf("reserved after rollback = %d, want 0", reserved)
	}
	if err := insertN(e, "q_a", 1); err != nil {
		t.Fatalf("insert after the holder rolled back: %v", err)
	}
}

func TestRowQuotaConcurrentInsertersLandExactlyCap(t *testing.T) {
	const cap, workers = 50, 8
	e := newQuotaEngine(t, "q_a", "q_b")
	e.SetRowQuota("q_", cap)
	if err := insertN(e, "q_a", cap-1); err != nil {
		t.Fatal(err)
	}
	var landed, refused atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			table := []string{"q_a", "q_b"}[w%2]
			for i := 0; i < 5; i++ {
				switch err := insertN(e, table, 1); {
				case err == nil:
					landed.Add(1)
				case errors.Is(err, ErrQuota):
					refused.Add(1)
				default:
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if landed.Load() != 1 || refused.Load() != workers*5-1 {
		t.Fatalf("landed %d refused %d, want 1 and %d", landed.Load(), refused.Load(), workers*5-1)
	}
	if total := liveRows(t, e, "q_a") + liveRows(t, e, "q_b"); total != cap {
		t.Fatalf("rows = %d, want %d", total, cap)
	}
}

func TestRowQuotaDropWithOpenReservation(t *testing.T) {
	e := newQuotaEngine(t, "q_a")
	e.SetRowQuota("q_", 1)
	tx := e.Begin()
	if _, err := tx.Insert("q_a", Row{int64(1), "x"}); err != nil {
		t.Fatal(err)
	}
	if err := e.DropTable("q_a"); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if live, reserved := quotaState(e, "q_"); live != 0 || reserved != 0 {
		t.Fatalf("after commit into a dropped table: live=%d reserved=%d, want 0 and 0", live, reserved)
	}
	if err := e.CreateTable(kvSchema(t, "q_a")); err != nil {
		t.Fatal(err)
	}
	if err := insertN(e, "q_a", 1); err != nil {
		t.Fatalf("recreated table starts from 0: %v", err)
	}
}

// versionOf returns a copy of the version slot holding rid.
func versionOf(t *testing.T, e *Engine, table string, rid RID) version {
	t.Helper()
	tbl, err := e.getTable(table)
	if err != nil {
		t.Fatal(err)
	}
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	slot, ok := tbl.byRID[rid]
	if !ok {
		t.Fatalf("rid %d has no version slot", rid)
	}
	return tbl.versions[slot]
}

// TestReadOnlyTxLeavesNoAbortedID: no transaction id outlives its
// transaction. A rollback undoes its own versions before its id leaves
// the active set (an insert gets xmin = xidAborted, a delete gets its
// xmax cleared), so nothing ever needs to remember that the id aborted,
// and vacuum reclaims the dead insert.
func TestReadOnlyTxLeavesNoAbortedID(t *testing.T) {
	e := newTestEngine(t)
	keep := mustInsert(t, e, "users", Row{int64(1), "ann", int64(30), true})[0]
	for i := 0; i < 100; i++ {
		if err := e.View(func(tx *Tx) error { _, err := tx.Count("users"); return err }); err != nil {
			t.Fatal(err)
		}
	}

	tx := e.Begin()
	rid, err := tx.Insert("users", Row{int64(2), "bob", int64(40), true})
	if err != nil {
		t.Fatal(err)
	}
	if err := tx.DeleteRID("users", keep); err != nil {
		t.Fatal(err)
	}
	tx.Rollback()
	if e.inFlight(tx.ID()) {
		t.Fatal("rolled-back writer still active")
	}
	if v := versionOf(t, e, "users", rid); v.xmin != xidAborted {
		t.Fatalf("rolled-back insert xmin = %d, want xidAborted", v.xmin)
	}
	if v := versionOf(t, e, "users", keep); v.xmax != 0 {
		t.Fatalf("rolled-back delete left xmax = %d, want 0", v.xmax)
	}
	if got := countRows(t, e, "users"); got != 1 {
		t.Fatalf("rolled-back insert visible: %d rows", got)
	}
	if !e.Vacuum() {
		t.Fatal("vacuum refused on a quiescent engine")
	}
	if got := countRows(t, e, "users"); got != 1 {
		t.Fatalf("after vacuum: %d rows, want 1", got)
	}
	tbl, _ := e.getTable("users")
	tbl.mu.RLock()
	slots := len(tbl.versions)
	tbl.mu.RUnlock()
	if slots != 1 {
		t.Fatalf("after vacuum: %d version slots, want 1", slots)
	}
}

// TestLiveRowCountersProperty runs seeded random histories of commits,
// rollbacks, vacuums, checkpoints, reopens over a torn WAL tail, and
// replica bootstraps whose first frames overlap the dump, and checks
// after every step that each table's live-row counter equals a full
// count — on the primary and on the replica.
func TestLiveRowCountersProperty(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		t.Run(fmt.Sprint("seed=", seed), func(t *testing.T) { liveRowHistory(t, seed, 250) })
	}
}

func liveRowHistory(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	tables := []string{"p_a", "p_b"}
	open := func() *Engine {
		e, err := Open(Options{Dir: dir, Sync: SyncBuffered})
		if err != nil {
			t.Fatalf("open: %v", err)
		}
		// Quotas are not persisted: the owner installs them on open.
		e.SetRowQuota("p_", 1<<30)
		return e
	}
	e := open()
	defer func() { e.Close() }()
	for _, name := range tables {
		if err := e.CreateTable(kvSchema(t, name)); err != nil {
			t.Fatal(err)
		}
	}
	// Put the tables in the snapshot so a torn WAL tail never loses them.
	if err := e.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	var replica *Engine
	var sub *WALSub
	// replicaFresh is true while the replica has seen every primary
	// commit, so its counts must equal the primary's.
	replicaFresh := false
	drain := func() {
		if sub == nil {
			return
		}
		for {
			select {
			case f, ok := <-sub.Frames():
				if !ok {
					sub = nil
					return
				}
				if err := replica.ApplyReplicated(f.Payload); err != nil {
					t.Fatalf("apply: %v", err)
				}
			default:
				return
			}
		}
	}
	check := func(step int, what string) {
		t.Helper()
		drain()
		sum := 0
		for _, name := range tables {
			live := liveRows(t, e, name)
			if n := countRows(t, e, name); live != n {
				t.Fatalf("step %d (%s): primary %s LiveRows=%d, Count=%d", step, what, name, live, n)
			}
			sum += live
			if replica == nil {
				continue
			}
			rl, err := replica.LiveRows(name)
			if err != nil {
				t.Fatalf("step %d (%s): replica: %v", step, what, err)
			}
			if n := countRows(t, replica, name); rl != n {
				t.Fatalf("step %d (%s): replica %s LiveRows=%d, Count=%d", step, what, name, rl, n)
			}
			if replicaFresh && rl != live {
				t.Fatalf("step %d (%s): replica %s has %d rows, primary %d", step, what, name, rl, live)
			}
		}
		if ql, reserved := quotaState(e, "p_"); ql != sum || reserved != 0 {
			t.Fatalf("step %d (%s): quota live=%d reserved=%d, want %d and 0", step, what, ql, reserved, sum)
		}
	}

	// write runs one random transaction and commits or rolls it back.
	write := func(commit bool) {
		tx := e.Begin()
		for n := 1 + rng.Intn(6); n > 0; n-- {
			name := tables[rng.Intn(len(tables))]
			if rng.Intn(3) == 0 {
				var rids []RID
				tx.Scan(name, func(rid RID, _ Row) bool { rids = append(rids, rid); return true })
				if len(rids) > 0 {
					if err := tx.DeleteRID(name, rids[rng.Intn(len(rids))]); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if _, err := tx.Insert(name, Row{int64(rng.Intn(1000)), "v"}); err != nil {
				t.Fatal(err)
			}
		}
		if commit {
			if err := tx.Commit(); err != nil {
				t.Fatal(err)
			}
		} else {
			tx.Rollback()
		}
	}

	for step := 0; step < steps; step++ {
		var what string
		switch r := rng.Intn(20); {
		case r < 10:
			what = "commit"
			write(true)
		case r < 13:
			what = "rollback"
			write(false)
		case r < 14:
			what = "vacuum"
			e.Vacuum()
		case r < 15:
			what = "checkpoint"
			if err := e.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		case r < 17:
			what = "reopen"
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			drain() // the subscription closes with the engine
			replicaFresh = false
			if rng.Intn(2) == 0 {
				tearWALTail(t, filepath.Join(dir, walFile), rng)
			}
			e = open()
		default:
			// Subscribe, commit more, then dump: the commits are both in
			// the dump and on the subscription, so applying the frames
			// exercises bootstrap overlap.
			what = "bootstrap"
			if sub != nil {
				sub.Close()
			}
			sub = e.SubscribeWAL(1 << 12)
			for n := rng.Intn(4); n > 0; n-- {
				write(true)
			}
			var buf bytes.Buffer
			if err := e.DumpState(&buf); err != nil {
				t.Fatal(err)
			}
			r, err := OpenFromDump(buf.Bytes())
			if err != nil {
				t.Fatal(err)
			}
			if replica != nil {
				replica.Close()
			}
			replica, replicaFresh = r, true
		}
		check(step, what)
	}
	if replica != nil {
		replica.Close()
	}
}

// tearWALTail cuts a few bytes off the end of the WAL or appends junk to
// it, imitating a crash during the last append.
func tearWALTail(t *testing.T, path string, rng *rand.Rand) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rng.Intn(2) == 0 && len(raw) > 0 {
		raw = raw[:len(raw)-1-rng.Intn(min(len(raw), 24))]
	} else {
		raw = append(raw, 0, 0, 0, 9, 'j', 'u', 'n', 'k')
	}
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
