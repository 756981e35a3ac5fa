package tenant

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

func newRegistry(t *testing.T) *Registry {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	r, err := NewRegistry(e)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestCreateAndLookup(t *testing.T) {
	r := newRegistry(t)
	info, err := r.Create("acme", "Acme Corp", "standard")
	if err != nil {
		t.Fatal(err)
	}
	if !info.Active || info.Plan != "standard" {
		t.Errorf("info = %+v", info)
	}
	if _, err := r.Create("acme", "again", "free"); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := r.Create("Bad ID!", "x", "free"); !errors.Is(err, ErrBadTenantID) {
		t.Errorf("bad id: %v", err)
	}
	if _, err := r.Create("x", "x", "platinum"); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("bad plan: %v", err)
	}
	if _, err := r.Get("ghost"); !errors.Is(err, ErrNoTenant) {
		t.Errorf("missing tenant: %v", err)
	}
	r.Create("beta", "Beta", "free")
	ids, _ := r.List()
	if len(ids) != 2 || ids[0] != "acme" {
		t.Errorf("list = %v", ids)
	}
}

func TestCatalogIsolation(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	r.Create("b", "B", "standard")
	ca, err := r.Catalog("a")
	if err != nil {
		t.Fatal(err)
	}
	cb, _ := r.Catalog("b")

	// Same logical table name, different physical tables.
	if _, err := ca.Exec(context.Background(), "CREATE TABLE sales (id INT PRIMARY KEY, amount FLOAT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Exec(context.Background(), "CREATE TABLE sales (id INT PRIMARY KEY, amount FLOAT)"); err != nil {
		t.Fatal(err)
	}
	ca.Exec(context.Background(), "INSERT INTO sales VALUES (1, 10.0), (2, 20.0)")
	cb.Exec(context.Background(), "INSERT INTO sales VALUES (1, 999.0)")

	resA, err := ca.Query(context.Background(), "SELECT COUNT(*), SUM(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if resA.Rows[0][0] != int64(2) || resA.Rows[0][1] != 30.0 {
		t.Errorf("tenant a sees %v", resA.Rows[0])
	}
	resB, _ := cb.Query(context.Background(), "SELECT COUNT(*), SUM(amount) FROM sales")
	if resB.Rows[0][0] != int64(1) {
		t.Errorf("tenant b sees %v", resB.Rows[0])
	}
	// Physical names carry the tenant prefix in the shared engine.
	shared := r.Engine().Tables()
	foundA, foundB := false, false
	for _, tbl := range shared {
		if tbl == "t_a__sales" {
			foundA = true
		}
		if tbl == "t_b__sales" {
			foundB = true
		}
	}
	if !foundA || !foundB {
		t.Errorf("physical tables = %v", shared)
	}
	if tables := ca.Tables(); len(tables) != 1 || tables[0] != "sales" {
		t.Errorf("logical tables = %v", tables)
	}
}

func TestCatalogJoinsAndAliases(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE d (id INT PRIMARY KEY, name TEXT)")
	c.Exec(context.Background(), "CREATE TABLE f (d_id INT, v INT)")
	c.Exec(context.Background(), "INSERT INTO d VALUES (1, 'x'), (2, 'y')")
	c.Exec(context.Background(), "INSERT INTO f VALUES (1, 10), (1, 5), (2, 1)")
	res, err := c.Query(context.Background(), `
		SELECT d.name, SUM(f.v) AS total
		FROM f JOIN d ON f.d_id = d.id
		GROUP BY d.name ORDER BY d.name`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][1] != int64(15) {
		t.Errorf("rows = %v", res.Rows)
	}
	// Subqueries are rewritten too.
	res, err = c.Query(context.Background(), "SELECT name FROM d WHERE id IN (SELECT d_id FROM f WHERE v > 9)")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "x" {
		t.Errorf("subquery rows = %v", res.Rows)
	}
}

// TestSuspendResume: suspension blocks an already-open catalog at its
// next statement, whether the SELECT is cold or already in the plan
// cache.
func TestSuspendResume(t *testing.T) {
	for _, warm := range []bool{false, true} {
		r := newRegistry(t)
		r.Create("a", "A", "free")
		c, _ := r.Catalog("a")
		c.Exec(context.Background(), "CREATE TABLE t (x INT)")
		if warm {
			if _, err := c.Query(context.Background(), "SELECT * FROM t"); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Suspend("a"); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Catalog("a"); !errors.Is(err, ErrSuspended) {
			t.Errorf("warm=%v: catalog for suspended tenant: %v", warm, err)
		}
		// An already-open catalog is blocked at the next statement.
		if _, err := c.Query(context.Background(), "SELECT * FROM t"); !errors.Is(err, ErrSuspended) {
			t.Errorf("warm=%v: query on suspended tenant: %v", warm, err)
		}
		r.Resume("a")
		if _, err := c.Query(context.Background(), "SELECT * FROM t"); err != nil {
			t.Errorf("warm=%v: after resume: %v", warm, err)
		}
	}
}

// TestNestedTenantNamespaces: an id whose physical prefix would begin
// inside another tenant's ("a--x" under "a": t_a__x__ vs t_a__) is
// rejected, and the closest valid neighbours stay isolated for queries,
// Tables, Drop and the MaxTables cap.
func TestNestedTenantNamespaces(t *testing.T) {
	ctx := context.Background()
	r := newRegistry(t)
	for _, id := range []string{"a--x", "a-", "-a", "a---x"} {
		if _, err := r.Create(id, "X", "free"); !errors.Is(err, ErrBadTenantID) {
			t.Errorf("Create(%q) = %v, want ErrBadTenantID", id, err)
		}
	}
	if _, err := r.Create("a", "A", "free"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Create("a-x", "AX", "free"); err != nil {
		t.Fatal(err)
	}
	ca, _ := r.Catalog("a")
	cx, _ := r.Catalog("a-x")
	mustExec(t, cx, "CREATE TABLE secret (v INT)")
	mustExec(t, cx, "INSERT INTO secret VALUES (42)")
	for _, q := range []string{"SELECT v FROM x__secret", "SELECT v FROM _x__secret", "SELECT v FROM t_a_x__secret"} {
		if res, err := ca.Query(ctx, q); err == nil {
			t.Errorf("tenant a read %v from its neighbour via %q", res.Rows, q)
		}
	}

	// MaxTables counts only the tenant's own tables.
	free, _ := r.Plan("free")
	for i := 1; i < free.MaxTables; i++ {
		mustExec(t, cx, fmt.Sprintf("CREATE TABLE x%d (v INT)", i))
	}
	if tables := ca.Tables(); len(tables) != 0 {
		t.Errorf("tenant a lists its neighbour's tables: %v", tables)
	}
	for i := 0; i < free.MaxTables; i++ {
		if _, err := ca.Exec(ctx, fmt.Sprintf("CREATE TABLE a%d (v INT)", i)); err != nil {
			t.Fatalf("tenant a table %d of %d: %v", i+1, free.MaxTables, err)
		}
	}
	if _, err := cx.Exec(ctx, "CREATE TABLE over (v INT)"); !errors.Is(err, ErrQuota) {
		t.Errorf("tenant a-x past MaxTables: %v, want ErrQuota", err)
	}

	if err := r.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if got := len(cx.Tables()); got != free.MaxTables {
		t.Errorf("after dropping tenant a, a-x has %d tables, want %d", got, free.MaxTables)
	}
	if res, err := cx.Query(ctx, "SELECT v FROM secret"); err != nil || len(res.Rows) != 1 || res.Rows[0][0] != int64(42) {
		t.Errorf("a-x secret after dropping a = %v, %v; want [[42]]", res, err)
	}
}

// TestPhysicalPrefixesNeverNest checks every valid id of up to six
// characters over {a, b, -}: no tenant's physical prefix begins
// another's, so HasPrefix matching in Tables, Drop and the table cap
// can only ever see the tenant's own tables.
func TestPhysicalPrefixesNeverNest(t *testing.T) {
	var ids []string
	var grow func(s string)
	grow = func(s string) {
		if validTenantID(s) {
			ids = append(ids, s)
		}
		if len(s) == 6 {
			return
		}
		for _, c := range []string{"a", "b", "-"} {
			grow(s + c)
		}
	}
	grow("")
	if len(ids) < 100 {
		t.Fatalf("only %d valid ids enumerated", len(ids))
	}
	for _, a := range ids {
		for _, b := range ids {
			if a != b && strings.HasPrefix(physicalPrefix(b), physicalPrefix(a)) {
				t.Fatalf("prefix of %q (%s) begins the prefix of %q (%s)", a, physicalPrefix(a), b, physicalPrefix(b))
			}
		}
	}
	if !validTenantID(strings.Repeat("a", 32)) || validTenantID(strings.Repeat("a", 33)) {
		t.Error("id length bound is not 32")
	}
}

func TestQuotas(t *testing.T) {
	r := newRegistry(t)
	r.DefinePlan(Plan{Name: "tiny", MaxTables: 1, MaxRows: 3})
	r.Create("a", "A", "tiny")
	c, _ := r.Catalog("a")
	if _, err := c.Exec(context.Background(), "CREATE TABLE t1 (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "CREATE TABLE t2 (x INT)"); !errors.Is(err, ErrQuota) {
		t.Errorf("table quota: %v", err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t1 VALUES (1), (2), (3)"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t1 VALUES (4)"); !errors.Is(err, ErrQuota) {
		t.Errorf("row quota: %v", err)
	}
	// Upgrading the plan lifts the quota.
	if err := r.SetPlan("a", "enterprise"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exec(context.Background(), "INSERT INTO t1 VALUES (4)"); err != nil {
		t.Errorf("after upgrade: %v", err)
	}
}

func TestMeteringAndInvoice(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE t (x INT)")
	c.Exec(context.Background(), "INSERT INTO t VALUES (1), (2)")
	c.Query(context.Background(), "SELECT * FROM t")
	c.Query(context.Background(), "SELECT COUNT(*) FROM t")
	usage, err := r.Usage("a")
	if err != nil {
		t.Fatal(err)
	}
	// 4 statements total (CREATE + INSERT + 2 SELECT).
	if usage[MetricQueries] != 4 {
		t.Errorf("queries = %d", usage[MetricQueries])
	}
	if usage[MetricRowsLoaded] != 2 {
		t.Errorf("rows loaded = %d", usage[MetricRowsLoaded])
	}
	inv, err := r.Invoice("a")
	if err != nil {
		t.Fatal(err)
	}
	if inv.Plan != "standard" || inv.Total <= 49 {
		t.Errorf("invoice = %+v", inv)
	}
	found := false
	for _, l := range inv.Lines {
		if strings.Contains(l.Item, "queries") && l.Qty == 4 {
			found = true
		}
	}
	if !found {
		t.Errorf("invoice lines = %+v", inv.Lines)
	}
}

func TestDropTenantRemovesPhysicalTables(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	r.Create("b", "B", "standard")
	ca, _ := r.Catalog("a")
	cb, _ := r.Catalog("b")
	ca.Exec(context.Background(), "CREATE TABLE t (x INT)")
	cb.Exec(context.Background(), "CREATE TABLE t (x INT)")
	if err := r.Drop("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("a"); !errors.Is(err, ErrNoTenant) {
		t.Errorf("dropped tenant still present: %v", err)
	}
	for _, tbl := range r.Engine().Tables() {
		if strings.HasPrefix(tbl, "t_a__") {
			t.Errorf("orphan physical table %s", tbl)
		}
	}
	// Tenant b untouched.
	if !cb.HasTable("t") {
		t.Error("tenant b lost its table")
	}
}

func TestSchemaLogicalName(t *testing.T) {
	r := newRegistry(t)
	r.Create("a", "A", "standard")
	c, _ := r.Catalog("a")
	c.Exec(context.Background(), "CREATE TABLE orders (id INT PRIMARY KEY)")
	s, err := c.Schema("orders")
	if err != nil {
		t.Fatal(err)
	}
	if s.Name != "orders" {
		t.Errorf("schema name = %q", s.Name)
	}
	if !c.HasTable("orders") || c.HasTable("ghost") {
		t.Error("HasTable wrong")
	}
	if c.Physical("orders") != "t_a__orders" {
		t.Errorf("physical = %q", c.Physical("orders"))
	}
}

func TestPlans(t *testing.T) {
	r := newRegistry(t)
	if _, err := r.Plan("standard"); err != nil {
		t.Error(err)
	}
	if _, err := r.Plan("ghost"); !errors.Is(err, ErrUnknownPlan) {
		t.Errorf("missing plan: %v", err)
	}
	if err := r.DefinePlan(Plan{}); err == nil {
		t.Error("unnamed plan accepted")
	}
	if err := r.SetPlan("nobody", "standard"); !errors.Is(err, ErrNoTenant) {
		t.Errorf("set plan on missing tenant: %v", err)
	}
}
