package tenant

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

func mustExec(t *testing.T, c *Catalog, q string, args ...storage.Value) int {
	t.Helper()
	n, err := c.Exec(context.Background(), q, args...)
	if err != nil {
		t.Fatalf("%s: %v", q, err)
	}
	return n
}

func rowCount(t *testing.T, c *Catalog) int {
	t.Helper()
	n, err := c.RowCount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRowCapAllowsDeleteAndUpdate: a tenant at its row cap can still
// change and remove rows, and a multi-row INSERT over the cap fails as
// a whole.
func TestRowCapAllowsDeleteAndUpdate(t *testing.T) {
	r := newRegistry(t)
	r.DefinePlan(Plan{Name: "tiny", MaxRows: 3})
	r.Create("a", "A", "tiny")
	c, _ := r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1), (2)")
	if _, err := c.Exec(context.Background(), "INSERT INTO t VALUES (3), (4)"); !errors.Is(err, ErrQuota) {
		t.Fatalf("multi-row insert over the cap: %v", err)
	}
	if got := rowCount(t, c); got != 2 {
		t.Fatalf("failed multi-row insert left %d rows, want 2", got)
	}
	mustExec(t, c, "INSERT INTO t VALUES (3)")
	if n := mustExec(t, c, "UPDATE t SET x = x + 10"); n != 3 {
		t.Fatalf("UPDATE at the cap touched %d rows, want 3", n)
	}
	if n := mustExec(t, c, "DELETE FROM t WHERE x = 11"); n != 1 {
		t.Fatalf("DELETE at the cap removed %d rows, want 1", n)
	}
	mustExec(t, c, "INSERT INTO t VALUES (1)")
	if got := rowCount(t, c); got != 3 {
		t.Fatalf("RowCount = %d, want 3", got)
	}
}

// TestSetPlanMovesRowCap: SetPlan and DefinePlan change the cap at the
// next insert in either direction.
func TestSetPlanMovesRowCap(t *testing.T) {
	r := newRegistry(t)
	r.DefinePlan(Plan{Name: "two", MaxRows: 2})
	r.DefinePlan(Plan{Name: "four", MaxRows: 4})
	r.Create("a", "A", "four")
	c, _ := r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1), (2), (3)")
	if err := r.SetPlan("a", "two"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t VALUES (4)"); !errors.Is(err, ErrQuota) {
		t.Fatalf("insert after downgrade: %v", err)
	}
	if err := r.SetPlan("a", "four"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO t VALUES (4)")
	if _, err := c.Exec(context.Background(), "INSERT INTO t VALUES (5)"); !errors.Is(err, ErrQuota) {
		t.Fatalf("insert past the restored cap: %v", err)
	}
	// Redefining the plan moves every tenant on it.
	if err := r.DefinePlan(Plan{Name: "four", MaxRows: 5}); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO t VALUES (5)")
	// An unlimited plan lifts the cap.
	if err := r.SetPlan("a", "enterprise"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, c, "INSERT INTO t VALUES (6), (7), (8)")
}

// TestDropThenCreateStartsFromZero: a dropped tenant's rows leave its
// cap, so re-creating the id starts with the whole allowance.
func TestDropThenCreateStartsFromZero(t *testing.T) {
	r := newRegistry(t)
	r.DefinePlan(Plan{Name: "tiny", MaxRows: 2})
	r.Create("a", "A", "tiny")
	c, _ := r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1), (2)")
	if err := r.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("a", "A again", "tiny"); err != nil {
		t.Fatal(err)
	}
	c, _ = r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	if got := rowCount(t, c); got != 0 {
		t.Fatalf("re-created tenant has %d rows", got)
	}
	mustExec(t, c, "INSERT INTO t VALUES (1), (2)")
}

// TestRowCapCoversDirectStorageWrites: the cap lives in storage, so a
// loader that writes the tenant's physical table directly (as ETL
// sinks do) meets it too.
func TestRowCapCoversDirectStorageWrites(t *testing.T) {
	r := newRegistry(t)
	r.DefinePlan(Plan{Name: "tiny", MaxRows: 2})
	r.Create("a", "A", "tiny")
	c, _ := r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	err := r.Engine().Update(func(tx *storage.Tx) error {
		for i := 0; i < 3; i++ {
			if _, err := tx.Insert(c.Physical("t"), storage.Row{int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("direct storage insert over the cap: %v", err)
	}
	if got := rowCount(t, c); got != 0 {
		t.Fatalf("rejected batch left %d rows", got)
	}
}

// TestRegistryInstallsCapsOnOpen: caps are not persisted by storage; a
// registry opened over existing tenants re-installs them.
func TestRegistryInstallsCapsOnOpen(t *testing.T) {
	dir := t.TempDir()
	e, err := storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRegistry(e)
	if err != nil {
		t.Fatal(err)
	}
	r.Create("a", "A", "free")
	c, _ := r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	mustExec(t, c, "INSERT INTO t VALUES (1)")
	e.Close()

	e, err = storage.Open(storage.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if r, err = NewRegistry(e); err != nil {
		t.Fatal(err)
	}
	c, _ = r.Catalog("a")
	if got := rowCount(t, c); got != 1 {
		t.Fatalf("RowCount after reopen = %d, want 1", got)
	}
	free, _ := r.Plan("free")
	err = e.Update(func(tx *storage.Tx) error {
		for i := 0; i < free.MaxRows; i++ {
			if _, err := tx.Insert(c.Physical("t"), storage.Row{int64(i)}); err != nil {
				return err
			}
		}
		return nil
	})
	if !errors.Is(err, ErrQuota) {
		t.Fatalf("filling past the free plan after reopen: %v", err)
	}
}

// TestRunExecutesThePreparedStatement: one Prepare, many Runs with
// different arguments, each metered as a query.
func TestRunExecutesThePreparedStatement(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	mustExec(t, c, "CREATE TABLE t (x INT)")
	st, err := c.Prepare("INSERT INTO t VALUES (?)")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Statement().(*sql.InsertStmt); !ok {
		t.Fatalf("Statement() = %T, want *sql.InsertStmt", st.Statement())
	}
	before := queriesMetered(t, r, "a")
	for _, x := range []int64{1, 2} {
		if _, err := c.Run(context.Background(), nil, st, []storage.Value{x}); err != nil {
			t.Fatal(err)
		}
	}
	if got := queriesMetered(t, r, "a") - before; got != 2 {
		t.Errorf("metered queries = %d, want 2", got)
	}
	res, err := c.Query(context.Background(), "SELECT x FROM t ORDER BY x")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0] != int64(1) || res.Rows[1][0] != int64(2) {
		t.Fatalf("rows = %v, want [[1] [2]]", res.Rows)
	}
}

// TestRunRefusesForeignStatements: a catalog runs only statements
// prepared in its own namespace, so a handle from another tenant (or an
// unrewritten one) cannot reach that tenant's tables.
func TestRunRefusesForeignStatements(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	r.Create("b", "B", "standard")
	ca, _ := r.Catalog("a")
	cb, _ := r.Catalog("b")
	mustExec(t, ca, "CREATE TABLE t (x INT)")
	mustExec(t, ca, "INSERT INTO t VALUES (1)")
	st, err := ca.Prepare("SELECT x FROM t")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cb.Run(context.Background(), nil, st, nil); err == nil {
		t.Fatalf("tenant b ran tenant a's statement: %v", res.Rows)
	}
	plain, err := sql.NewDB(r.Engine()).Prepare("", "SELECT x FROM t_a__t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if res, err := cb.Run(context.Background(), nil, plain, nil); err == nil {
		t.Fatalf("tenant b ran an unrewritten statement: %v", res.Rows)
	}
}

func queriesMetered(t *testing.T, r *Registry, id string) int64 {
	t.Helper()
	u, err := r.Usage(id)
	if err != nil {
		t.Fatal(err)
	}
	return u[MetricQueries]
}

// BenchmarkTenantInsert times a single-row INSERT through the tenant
// catalog on the standard plan at two table sizes. The row cap is an
// O(1) counter check, so the 100k case must cost about what the 1k case
// does; a per-insert scan of the tenant's rows would be ~100x slower.
func BenchmarkTenantInsert(b *testing.B) {
	for _, rows := range []int{1000, 100000} {
		b.Run(fmt.Sprintf("rows=%dk", rows/1000), func(b *testing.B) {
			e := storage.MustOpenMemory()
			defer e.Close()
			r, err := NewRegistry(e)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := r.Create("bench", "Bench", "standard"); err != nil {
				b.Fatal(err)
			}
			c, err := r.Catalog("bench")
			if err != nil {
				b.Fatal(err)
			}
			ctx := context.Background()
			if _, err := c.Exec(ctx, "CREATE TABLE facts (id INT, amount FLOAT)"); err != nil {
				b.Fatal(err)
			}
			phys := c.Physical("facts")
			for start := 0; start < rows; start += 1000 {
				err := e.Update(func(tx *storage.Tx) error {
					for i := start; i < start+1000 && i < rows; i++ {
						if _, err := tx.Insert(phys, storage.Row{int64(i), float64(i)}); err != nil {
							return err
						}
					}
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.Exec(ctx, "INSERT INTO facts VALUES (?, ?)", int64(rows+i), 1.5); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
