package sql

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// TestPlanCacheHitRatio is the dashboard workload in miniature: the
// same SELECT re-run N times must parse and plan once and hit the
// cache for every later run (≥ 90% of executions).
func TestPlanCacheHitRatio(t *testing.T) {
	db := newTestDB(t)
	const runs = 20
	q := "SELECT name FROM emp WHERE salary > ? ORDER BY name"
	var want []string
	for i := 0; i < runs; i++ {
		res := mustExec(t, db, q, float64(100))
		got := rowsAsStrings(res)
		if i == 0 {
			want = got
			continue
		}
		if strings.Join(got, ";") != strings.Join(want, ";") {
			t.Fatalf("run %d: rows %v, want %v", i, got, want)
		}
	}
	st := db.PlanCacheStats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want 1 (single cold parse+plan)", st.Misses)
	}
	if st.Hits != runs-1 {
		t.Errorf("hits = %d, want %d", st.Hits, runs-1)
	}
	ratio := float64(st.Hits) / float64(st.Hits+st.Misses)
	if ratio < 0.9 {
		t.Errorf("hit ratio = %.2f, want >= 0.90", ratio)
	}
	if st.Entries != 1 {
		t.Errorf("entries = %d, want 1", st.Entries)
	}
}

// TestPlanCacheDDLInvalidation checks epoch-based coherence: DDL bumps
// the schema epoch, the cached plan goes stale, and the next execution
// replans (counted as a miss) and picks up the new access path.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT name FROM emp WHERE salary = 90.0"
	res := mustExec(t, db, q)
	if res.Plan != "scan" {
		t.Fatalf("cold plan = %q, want scan (no index yet)", res.Plan)
	}
	mustExec(t, db, q) // warm: hit
	before := db.PlanCacheStats()
	if before.Hits != 1 || before.Misses != 1 {
		t.Fatalf("warm stats = %+v, want 1 hit / 1 miss", before)
	}

	mustExec(t, db, "CREATE INDEX emp_sal ON emp (salary)")

	res = mustExec(t, db, q)
	if !strings.HasPrefix(res.Plan, "index:") {
		t.Fatalf("post-DDL plan = %q, want index path (stale plan served)", res.Plan)
	}
	if got := rowsAsStrings(res); len(got) != 1 || got[0] != "tony" {
		t.Fatalf("post-DDL rows = %v, want [tony]", got)
	}
	after := db.PlanCacheStats()
	if after.Misses != before.Misses+1 {
		t.Errorf("misses %d -> %d, want +1 for the stale replan", before.Misses, after.Misses)
	}

	// The replanned entry is fresh again: next run is a hit on the
	// index plan.
	res = mustExec(t, db, q)
	if !strings.HasPrefix(res.Plan, "index:") {
		t.Fatalf("re-warmed plan = %q, want index path", res.Plan)
	}
	if st := db.PlanCacheStats(); st.Hits != after.Hits+1 {
		t.Errorf("hits %d -> %d, want +1", after.Hits, st.Hits)
	}
}

// TestPlanCacheDropTable: dropping the table invalidates the plan; the
// replan fails cleanly instead of executing against a dead schema.
func TestPlanCacheDropTable(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT id FROM dept"
	mustExec(t, db, q)
	mustExec(t, db, "DROP TABLE dept")
	if _, err := db.Query(q); err == nil {
		t.Fatal("query against dropped table succeeded from the plan cache")
	}
}

// TestPlanCacheEvictionBound: the LRU never holds more than its cap,
// and overflow shows up in the eviction counter.
func TestPlanCacheEvictionBound(t *testing.T) {
	db := newTestDB(t)
	over := planCacheCap + 16
	for i := 0; i < over; i++ {
		mustExec(t, db, fmt.Sprintf("SELECT id FROM emp WHERE id = %d", i))
	}
	st := db.PlanCacheStats()
	if st.Entries > planCacheCap {
		t.Errorf("entries = %d, want <= %d", st.Entries, planCacheCap)
	}
	if st.Evictions < uint64(over-planCacheCap) {
		t.Errorf("evictions = %d, want >= %d", st.Evictions, over-planCacheCap)
	}
	// LRU order: the most recent text must still be cached.
	if !cached(db, "", fmt.Sprintf("SELECT id FROM emp WHERE id = %d", over-1)) {
		t.Error("most recently used entry was evicted")
	}
}

// TestPlanCacheDisabled: with the cache off nothing is cached or
// counted, and queries still work.
func TestPlanCacheDisabled(t *testing.T) {
	SetPlanCacheEnabled(false)
	defer SetPlanCacheEnabled(true)
	db := newTestDB(t)
	q := "SELECT COUNT(*) FROM emp"
	for i := 0; i < 3; i++ {
		res := mustExec(t, db, q)
		if got := rowsAsStrings(res); got[0] != "6" {
			t.Fatalf("COUNT(*) = %v", got)
		}
	}
	st := db.PlanCacheStats()
	if st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Errorf("disabled cache has activity: %+v", st)
	}
	if cached(db, "", q) {
		t.Error("statement cached while cache disabled")
	}
}

// TestPlanCacheNamespaces: the same SQL text under different
// namespaces (tenants) is two distinct entries.
func TestPlanCacheNamespaces(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT id FROM emp"
	if _, err := db.Prepare("acme", q, nil); err != nil {
		t.Fatal(err)
	}
	if cached(db, "", q) {
		t.Error("namespace acme leaked into the default namespace")
	}
	if !cached(db, "acme", q) {
		t.Error("prepared statement not visible under its namespace")
	}
}

// cached reports whether (ns, text) is in db's plan cache without
// counting a lookup.
func cached(db *DB, ns, text string) bool {
	c := db.planCache()
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[cacheKey{ns: ns, text: text}]
	return ok
}

// TestPrepareCountsOnce: a prepared SELECT counts one miss when parsed
// and one hit per later Prepare, however often each handle runs. Writes
// and parse errors never count, and a stale plan counts as a miss.
func TestPrepareCountsOnce(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT name FROM emp WHERE dept_id = ?"
	prepare := func(text string) *Stmt {
		t.Helper()
		st, err := db.Prepare("", text, nil)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	want := func(hits, misses uint64) {
		t.Helper()
		if st := db.PlanCacheStats(); st.Hits != hits || st.Misses != misses {
			t.Fatalf("stats = %+v, want %d hits / %d misses", st, hits, misses)
		}
	}
	st := prepare(q)
	for i := 0; i < 3; i++ {
		if _, err := db.Run(context.Background(), st, []storage.Value{int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	want(0, 1)
	prepare(q)
	want(1, 1)
	prepare("INSERT INTO dept VALUES (7, 'ops')")
	if _, err := db.Prepare("", "SELEC nonsense", nil); err == nil {
		t.Fatal("Prepare accepted a malformed statement")
	}
	want(1, 1)
	mustExec(t, db, "CREATE INDEX emp_dept ON emp (dept_id)")
	prepare(q)
	want(1, 2)
}

// TestRunResolvesOnTheEngineHandedIn: a statement prepared on one
// engine runs on another against that engine's data, schema epoch and
// plan cache, without parsing again and without counting.
func TestRunResolvesOnTheEngineHandedIn(t *testing.T) {
	primary, other := newTestDB(t), newTestDB(t)
	mustExec(t, other, "INSERT INTO emp (id, name, dept_id) VALUES (99, 'zed', 9)")
	mustExec(t, other, "CREATE INDEX emp_dept ON emp (dept_id)")
	q := "SELECT name FROM emp WHERE dept_id = 9"
	st, err := primary.Prepare("", q, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		res, err := other.Run(context.Background(), st, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := rowsAsStrings(res); len(got) != 1 || got[0] != "zed" {
			t.Fatalf("run %d on other engine: rows %v, want [zed]", i, got)
		}
		if !strings.HasPrefix(res.Plan, "index:") {
			t.Errorf("run %d on other engine: plan %q, want its index", i, res.Plan)
		}
	}
	res, err := primary.Run(context.Background(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 0 || res.Plan != "scan" {
		t.Errorf("run on primary: %d rows by %q, want 0 rows by scan", len(res.Rows), res.Plan)
	}
	if got := other.PlanCacheStats(); got.Entries != 1 || got.Hits+got.Misses != 0 {
		t.Errorf("other engine cache = %+v, want 1 uncounted entry", got)
	}
	if !cached(other, "", q) {
		t.Error("other engine did not cache the statement under its text")
	}
}

// TestPlanCacheCoherentUnderConcurrentDDL hammers cached reads while
// another goroutine churns an index on the same column. Run under
// -race in CI: every read must either full-scan or index-scan, and
// always return the same rows.
func TestPlanCacheCoherentUnderConcurrentDDL(t *testing.T) {
	db := newTestDB(t)
	q := "SELECT name FROM emp WHERE dept_id = 1 ORDER BY name"
	want := strings.Join(rowsAsStrings(mustExec(t, db, q)), ";")

	const readers = 4
	const rounds = 50
	var wg sync.WaitGroup
	errs := make(chan error, readers+1)

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			if _, err := db.Query("CREATE INDEX emp_dept ON emp (dept_id)"); err != nil {
				errs <- err
				return
			}
			if _, err := db.Query("DROP INDEX emp_dept ON emp"); err != nil {
				errs <- err
				return
			}
		}
	}()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				res, err := db.QueryContext(context.Background(), q)
				if err != nil {
					errs <- err
					return
				}
				if got := strings.Join(rowsAsStrings(res), ";"); got != want {
					errs <- fmt.Errorf("read %d: rows %q, want %q (plan %s)", i, got, want, res.Plan)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// --- EXPLAIN ---

func TestExplainSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "EXPLAIN SELECT name FROM emp WHERE salary > 100 ORDER BY name")
	if len(res.Columns) != 1 || res.Columns[0] != "plan" {
		t.Fatalf("columns = %v, want [plan]", res.Columns)
	}
	text := strings.Join(rowsAsStrings(res), "\n")
	for _, want := range []string{"sort name", "project name", "filter (salary > 100)", "scan emp"} {
		if !strings.Contains(text, want) {
			t.Errorf("EXPLAIN output missing %q:\n%s", want, text)
		}
	}
	if res.Plan != "scan" {
		t.Errorf("Result.Plan = %q, want scan (back-compat access path)", res.Plan)
	}
}

func TestExplainShowsIndexAndJoin(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX emp_sal ON emp (salary)")
	res := mustExec(t, db, "EXPLAIN SELECT e.name, d.name FROM emp e JOIN dept d ON e.dept_id = d.id WHERE e.salary = 90.0")
	text := strings.Join(rowsAsStrings(res), "\n")
	if !strings.Contains(text, "index-scan emp using emp_sal") {
		t.Errorf("EXPLAIN missing index scan:\n%s", text)
	}
	if !strings.Contains(text, "hash join (inner)") {
		t.Errorf("EXPLAIN missing hash join:\n%s", text)
	}
}

func TestExplainRejectsNonSelect(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Query("EXPLAIN INSERT INTO dept VALUES (9, 'x')")
	if err == nil || !strings.Contains(err.Error(), "EXPLAIN supports SELECT") {
		t.Fatalf("EXPLAIN INSERT: err = %v", err)
	}
}

// TestPreparedStmtReuse exercises the Stmt handle directly: one
// prepare, many executions with different parameters.
func TestPreparedStmtReuse(t *testing.T) {
	db := newTestDB(t)
	st, err := db.Prepare("", "SELECT name FROM emp WHERE dept_id = ?", nil)
	if err != nil {
		t.Fatal(err)
	}
	for dept, wantN := range map[int64]int{1: 3, 2: 2, 3: 0} {
		res, err := db.Run(context.Background(), st, []storage.Value{dept})
		if err != nil {
			t.Fatalf("dept %d: %v", dept, err)
		}
		if len(res.Rows) != wantN {
			t.Errorf("dept %d: %d rows, want %d", dept, len(res.Rows), wantN)
		}
	}
	if _, ok := st.Statement().(*SelectStmt); !ok {
		t.Errorf("Statement() = %T, want *SelectStmt", st.Statement())
	}
}
