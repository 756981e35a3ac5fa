package sql

import (
	"fmt"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// newTestDB builds a DB with employee/department fixtures used across
// executor tests.
func newTestDB(t testing.TB) *DB {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	db := NewDB(e)
	mustExec(t, db, `CREATE TABLE dept (id INT PRIMARY KEY, name TEXT NOT NULL)`)
	mustExec(t, db, `CREATE TABLE emp (
		id INT PRIMARY KEY,
		name TEXT NOT NULL,
		dept_id INT,
		salary FLOAT,
		active BOOL DEFAULT TRUE
	)`)
	mustExec(t, db, `INSERT INTO dept VALUES (1, 'eng'), (2, 'sales'), (3, 'empty')`)
	mustExec(t, db, `INSERT INTO emp (id, name, dept_id, salary) VALUES
		(1, 'ada', 1, 120.0),
		(2, 'grace', 1, 130.0),
		(3, 'edsger', 1, 110.0),
		(4, 'tony', 2, 90.0),
		(5, 'barbara', 2, 95.0),
		(6, 'alan', NULL, 80.0)`)
	return db
}

func mustExec(t testing.TB, db *DB, q string, args ...storage.Value) *Result {
	t.Helper()
	res, err := db.Query(q, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", q, err)
	}
	return res
}

func rowsAsStrings(res *Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = storage.FormatValue(v)
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

func TestSelectAll(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT * FROM emp")
	if len(res.Rows) != 6 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	if len(res.Columns) != 5 || res.Columns[0] != "id" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectProjectionAndWhere(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT name, salary * 2 AS dbl FROM emp WHERE salary >= 110 ORDER BY name")
	want := []string{"ada|240.0", "edsger|220.0", "grace|260.0"}
	got := rowsAsStrings(res)
	if len(got) != len(want) {
		t.Fatalf("rows = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("row %d = %q, want %q", i, got[i], want[i])
		}
	}
	if res.Columns[1] != "dbl" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectParams(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT name FROM emp WHERE dept_id = ? AND salary > ? ORDER BY 1", 1, 115)
	got := rowsAsStrings(res)
	if len(got) != 2 || got[0] != "ada" || got[1] != "grace" {
		t.Errorf("rows = %v", got)
	}
}

func TestAggregatesNoGroup(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT COUNT(*), COUNT(dept_id), SUM(salary), AVG(salary), MIN(name), MAX(salary) FROM emp")
	r := res.Rows[0]
	if r[0] != int64(6) {
		t.Errorf("count(*) = %v", r[0])
	}
	if r[1] != int64(5) { // NULL dept_id skipped
		t.Errorf("count(dept_id) = %v", r[1])
	}
	if r[2] != float64(625) {
		t.Errorf("sum = %v", r[2])
	}
	if av := r[3].(float64); av < 104.1 || av > 104.2 {
		t.Errorf("avg = %v", r[3])
	}
	if r[4] != "ada" || r[5] != float64(130) {
		t.Errorf("min/max = %v / %v", r[4], r[5])
	}
}

func TestAggregateEmptyInput(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT COUNT(*), SUM(salary) FROM emp WHERE id > 100")
	if res.Rows[0][0] != int64(0) || res.Rows[0][1] != nil {
		t.Errorf("empty aggregates = %v", res.Rows[0])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT dept_id, COUNT(*) AS n, AVG(salary) AS avg_sal
		FROM emp
		WHERE dept_id IS NOT NULL
		GROUP BY dept_id
		HAVING COUNT(*) >= 2
		ORDER BY dept_id`)
	got := rowsAsStrings(res)
	if len(got) != 2 {
		t.Fatalf("groups = %v", got)
	}
	if got[0] != "1|3|120.0" || got[1] != "2|2|92.5" {
		t.Errorf("groups = %v", got)
	}
}

func TestGroupByExpressionAndPosition(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT active, COUNT(*) FROM emp GROUP BY 1 ORDER BY 2 DESC")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %v", rowsAsStrings(res))
	}
	res = mustExec(t, db, "SELECT UPPER(name) AS un FROM emp GROUP BY un ORDER BY un LIMIT 2")
	got := rowsAsStrings(res)
	if got[0] != "ADA" || got[1] != "ALAN" {
		t.Errorf("rows = %v", got)
	}
}

func TestCountDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT COUNT(DISTINCT dept_id) FROM emp")
	if res.Rows[0][0] != int64(2) {
		t.Errorf("count distinct = %v", res.Rows[0][0])
	}
}

func TestInnerJoin(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT e.name, d.name AS dept
		FROM emp e JOIN dept d ON e.dept_id = d.id
		ORDER BY e.name`)
	got := rowsAsStrings(res)
	if len(got) != 5 {
		t.Fatalf("rows = %v", got)
	}
	if got[0] != "ada|eng" || got[4] != "tony|sales" {
		t.Errorf("rows = %v", got)
	}
}

func TestLeftJoin(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT e.name, d.name
		FROM emp e LEFT JOIN dept d ON e.dept_id = d.id
		ORDER BY e.name`)
	got := rowsAsStrings(res)
	if len(got) != 6 {
		t.Fatalf("rows = %v", got)
	}
	// alan has no dept: right side NULL.
	if got[0] != "ada|eng" || got[1] != "alan|NULL" {
		t.Errorf("rows = %v", got)
	}
}

func TestLeftJoinEmptySide(t *testing.T) {
	db := newTestDB(t)
	// Depts with no employees via LEFT JOIN from dept.
	res := mustExec(t, db, `
		SELECT d.name, COUNT(e.id) AS n
		FROM dept d LEFT JOIN emp e ON e.dept_id = d.id
		GROUP BY d.name
		ORDER BY d.name`)
	got := rowsAsStrings(res)
	if len(got) != 3 {
		t.Fatalf("rows = %v", got)
	}
	if got[0] != "empty|0" {
		t.Errorf("rows = %v", got)
	}
}

func TestCrossJoin(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT COUNT(*) FROM emp, dept")
	if res.Rows[0][0] != int64(18) {
		t.Errorf("cross join count = %v", res.Rows[0][0])
	}
}

func TestNonEquiJoinNestedLoop(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT COUNT(*)
		FROM emp a JOIN emp b ON a.salary < b.salary`)
	// Pairs with strictly increasing salary: count manually.
	// salaries: 120,130,110,90,95,80 → pairs where a<b.
	if res.Rows[0][0] != int64(15) {
		t.Errorf("non-equi join count = %v", res.Rows[0][0])
	}
}

func TestDistinct(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT DISTINCT dept_id FROM emp ORDER BY dept_id")
	got := rowsAsStrings(res)
	if len(got) != 3 || got[0] != "NULL" || got[1] != "1" || got[2] != "2" {
		t.Errorf("distinct = %v", got)
	}
}

func TestLimitOffset(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT id FROM emp ORDER BY id LIMIT 2 OFFSET 3")
	got := rowsAsStrings(res)
	if len(got) != 2 || got[0] != "4" || got[1] != "5" {
		t.Errorf("rows = %v", got)
	}
	res = mustExec(t, db, "SELECT id FROM emp ORDER BY id LIMIT 0")
	if len(res.Rows) != 0 {
		t.Errorf("limit 0 rows = %d", len(res.Rows))
	}
	res = mustExec(t, db, "SELECT id FROM emp ORDER BY id LIMIT 100 OFFSET 100")
	if len(res.Rows) != 0 {
		t.Errorf("offset past end rows = %d", len(res.Rows))
	}
}

func TestSubqueries(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT name FROM emp
		WHERE dept_id IN (SELECT id FROM dept WHERE name = 'eng')
		ORDER BY name`)
	got := rowsAsStrings(res)
	if len(got) != 3 || got[0] != "ada" {
		t.Errorf("IN subquery = %v", got)
	}
	res = mustExec(t, db, "SELECT name FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)")
	if len(res.Rows) != 1 || res.Rows[0][0] != "grace" {
		t.Errorf("scalar subquery = %v", rowsAsStrings(res))
	}
	// Correlated EXISTS.
	res = mustExec(t, db, `
		SELECT d.name FROM dept d
		WHERE EXISTS (SELECT 1 FROM emp e WHERE e.dept_id = d.id)
		ORDER BY d.name`)
	got = rowsAsStrings(res)
	if len(got) != 2 || got[0] != "eng" || got[1] != "sales" {
		t.Errorf("EXISTS = %v", got)
	}
}

func TestCaseAndFunctions(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT name,
		       CASE WHEN salary >= 120 THEN 'high' WHEN salary >= 90 THEN 'mid' ELSE 'low' END AS band,
		       UPPER(SUBSTR(name, 1, 1)) AS initial
		FROM emp ORDER BY id LIMIT 3`)
	got := rowsAsStrings(res)
	if got[0] != "ada|high|A" || got[2] != "edsger|mid|E" {
		t.Errorf("rows = %v", got)
	}
}

func TestNullSemantics(t *testing.T) {
	db := newTestDB(t)
	// NULL = NULL is unknown → filtered out.
	res := mustExec(t, db, "SELECT name FROM emp WHERE dept_id = dept_id")
	if len(res.Rows) != 5 {
		t.Errorf("NULL=NULL rows = %d", len(res.Rows))
	}
	// COALESCE.
	res = mustExec(t, db, "SELECT COALESCE(dept_id, -1) FROM emp WHERE name = 'alan'")
	if res.Rows[0][0] != int64(-1) {
		t.Errorf("coalesce = %v", res.Rows[0][0])
	}
	// x IN (...) with NULLs: unknown stays out, NOT IN with null list is
	// unknown too.
	res = mustExec(t, db, "SELECT name FROM emp WHERE dept_id NOT IN (2, NULL)")
	if len(res.Rows) != 0 {
		t.Errorf("NOT IN with NULL should be empty, got %v", rowsAsStrings(res))
	}
}

func TestInsertUpdateDelete(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "INSERT INTO emp (id, name, salary) VALUES (10, 'kurt', 70.0)")
	if res.Affected != 1 {
		t.Errorf("insert affected = %d", res.Affected)
	}
	res = mustExec(t, db, "UPDATE emp SET salary = salary + 10 WHERE salary < 100")
	if res.Affected != 4 {
		t.Errorf("update affected = %d", res.Affected)
	}
	r := mustExec(t, db, "SELECT salary FROM emp WHERE id = 10")
	if r.Rows[0][0] != float64(80) {
		t.Errorf("salary after update = %v", r.Rows[0][0])
	}
	res = mustExec(t, db, "DELETE FROM emp WHERE dept_id IS NULL")
	if res.Affected != 2 { // alan + kurt
		t.Errorf("delete affected = %d", res.Affected)
	}
	r = mustExec(t, db, "SELECT COUNT(*) FROM emp")
	if r.Rows[0][0] != int64(5) {
		t.Errorf("count after delete = %v", r.Rows[0][0])
	}
}

func TestInsertDefaults(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "INSERT INTO emp (id, name) VALUES (20, 'def')")
	r := mustExec(t, db, "SELECT active, salary FROM emp WHERE id = 20")
	if r.Rows[0][0] != true || r.Rows[0][1] != nil {
		t.Errorf("defaults = %v", r.Rows[0])
	}
}

func TestDDLThroughSQL(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE tmp (a INT, b TEXT)")
	mustExec(t, db, "CREATE INDEX tmp_a ON tmp (a)")
	mustExec(t, db, "INSERT INTO tmp VALUES (1, 'x')")
	mustExec(t, db, "DROP INDEX tmp_a ON tmp")
	mustExec(t, db, "DROP TABLE tmp")
	if db.Engine.HasTable("tmp") {
		t.Error("table still exists")
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS dept (id INT)") // no-op
	mustExec(t, db, "DROP TABLE IF EXISTS never_existed")
}

func TestIndexPathSelected(t *testing.T) {
	db := newTestDB(t)
	// emp has a pk index on id: equality on id should use it.
	res := mustExec(t, db, "SELECT name FROM emp WHERE id = 3")
	if !strings.HasPrefix(res.Plan, "index:") {
		t.Errorf("plan = %q, want index path", res.Plan)
	}
	if len(res.Rows) != 1 || res.Rows[0][0] != "edsger" {
		t.Errorf("rows = %v", rowsAsStrings(res))
	}
	// Non-indexed predicate: scan.
	res = mustExec(t, db, "SELECT name FROM emp WHERE salary = 120.0")
	if res.Plan != "scan" {
		t.Errorf("plan = %q, want scan", res.Plan)
	}
	// DisableIndexes forces scans.
	db.DisableIndexes = true
	res = mustExec(t, db, "SELECT name FROM emp WHERE id = 3")
	if res.Plan != "scan" {
		t.Errorf("plan with DisableIndexes = %q", res.Plan)
	}
	if len(res.Rows) != 1 {
		t.Errorf("rows = %v", rowsAsStrings(res))
	}
}

func TestIndexRangePath(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE INDEX emp_sal ON emp (salary)")
	res := mustExec(t, db, "SELECT name FROM emp WHERE salary > 100 ORDER BY name")
	if !strings.HasPrefix(res.Plan, "index:emp_sal") {
		t.Errorf("plan = %q", res.Plan)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %v", rowsAsStrings(res))
	}
	// Result must equal the scan path result.
	db.DisableIndexes = true
	res2 := mustExec(t, db, "SELECT name FROM emp WHERE salary > 100 ORDER BY name")
	if fmt.Sprint(rowsAsStrings(res)) != fmt.Sprint(rowsAsStrings(res2)) {
		t.Errorf("index path %v != scan path %v", rowsAsStrings(res), rowsAsStrings(res2))
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT 1 + 1, 'x' || 'y', UPPER('ab')")
	if res.Rows[0][0] != int64(2) || res.Rows[0][1] != "xy" || res.Rows[0][2] != "AB" {
		t.Errorf("row = %v", res.Rows[0])
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := newTestDB(t)
	_, err := db.Query("SELECT name FROM emp e JOIN dept d ON e.dept_id = d.id")
	if err == nil || !strings.Contains(err.Error(), "ambiguous") {
		t.Errorf("ambiguous column: %v", err)
	}
}

func TestErrorCases(t *testing.T) {
	db := newTestDB(t)
	cases := []string{
		"SELECT * FROM missing",
		"SELECT bogus FROM emp",
		"SELECT name FROM emp WHERE salary / 0 > 1",
		"INSERT INTO emp (id, bogus) VALUES (1, 2)",
		"INSERT INTO emp (id) VALUES (1, 2)",
		"UPDATE emp SET bogus = 1",
		"SELECT name FROM emp HAVING salary > 1",
		"SELECT name FROM emp GROUP BY 99",
		"SELECT SUM(name) FROM emp",
		"SELECT name FROM emp e JOIN emp e ON 1 = 1",
	}
	for _, q := range cases {
		if _, err := db.Query(q); err == nil {
			t.Errorf("Query(%q) should fail", q)
		}
	}
}

func TestTransactionalDML(t *testing.T) {
	db := newTestDB(t)
	// A failing multi-row insert must roll back entirely (same tx).
	_, err := db.Query("INSERT INTO emp (id, name) VALUES (100, 'a'), (1, 'dup')")
	if err == nil {
		t.Fatal("duplicate pk accepted")
	}
	res := mustExec(t, db, "SELECT COUNT(*) FROM emp WHERE id = 100")
	if res.Rows[0][0] != int64(0) {
		t.Error("partial insert leaked")
	}
}

// TestQueryTxSeesOwnWrites: statements run with RunTx share the open
// transaction, so a cold and then a cached SELECT both see its insert.
func TestQueryTxSeesOwnWrites(t *testing.T) {
	db := newTestDB(t)
	tx := db.Engine.Begin()
	defer tx.Rollback()
	runTx := func(q string) *Result {
		t.Helper()
		st, err := db.Prepare("", q, nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := db.RunTx(tx, st, nil)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	runTx("INSERT INTO emp (id, name) VALUES (50, 'tmp')")
	for i := 0; i < 2; i++ {
		if res := runTx("SELECT COUNT(*) FROM emp"); res.Rows[0][0] != int64(7) {
			t.Errorf("run %d: count in tx = %v", i, res.Rows[0][0])
		}
	}
}

func TestOrderByMultipleKeys(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT dept_id, name FROM emp WHERE dept_id IS NOT NULL ORDER BY dept_id DESC, name ASC")
	got := rowsAsStrings(res)
	if got[0] != "2|barbara" || got[1] != "2|tony" || got[2] != "1|ada" {
		t.Errorf("rows = %v", got)
	}
}

func TestLikeOperator(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, "SELECT name FROM emp WHERE name LIKE 'a%' ORDER BY name")
	got := rowsAsStrings(res)
	if len(got) != 2 || got[0] != "ada" || got[1] != "alan" {
		t.Errorf("LIKE = %v", got)
	}
	res = mustExec(t, db, "SELECT name FROM emp WHERE name LIKE '_race'")
	if len(res.Rows) != 1 || res.Rows[0][0] != "grace" {
		t.Errorf("LIKE _ = %v", rowsAsStrings(res))
	}
	res = mustExec(t, db, "SELECT name FROM emp WHERE name NOT LIKE '%a%' ORDER BY name")
	got = rowsAsStrings(res)
	if len(got) != 2 || got[0] != "edsger" || got[1] != "tony" {
		t.Errorf("NOT LIKE = %v", got)
	}
}

// Property: SQL aggregation agrees with manual recomputation over the raw
// rows, for a spread of group counts.
func TestGroupByAgainstManual(t *testing.T) {
	e := storage.MustOpenMemory()
	defer e.Close()
	db := NewDB(e)
	mustExec(t, db, "CREATE TABLE v (g INT, x INT)")
	type agg struct {
		n   int64
		sum int64
	}
	manual := map[int64]*agg{}
	k := 0
	for g := int64(0); g < 7; g++ {
		for i := int64(0); i <= g*3; i++ {
			x := (g*31 + i*17) % 100
			mustExec(t, db, "INSERT INTO v VALUES (?, ?)", g, x)
			if manual[g] == nil {
				manual[g] = &agg{}
			}
			manual[g].n++
			manual[g].sum += x
			k++
		}
	}
	res := mustExec(t, db, "SELECT g, COUNT(*), SUM(x) FROM v GROUP BY g ORDER BY g")
	if len(res.Rows) != len(manual) {
		t.Fatalf("groups = %d, want %d", len(res.Rows), len(manual))
	}
	for _, r := range res.Rows {
		g := r[0].(int64)
		if r[1] != manual[g].n || r[2] != manual[g].sum {
			t.Errorf("group %d: got (%v,%v), want (%d,%d)", g, r[1], r[2], manual[g].n, manual[g].sum)
		}
	}
}

func TestUnion(t *testing.T) {
	db := newTestDB(t)
	// UNION deduplicates; UNION ALL keeps duplicates.
	res := mustExec(t, db, `
		SELECT dept_id FROM emp WHERE dept_id IS NOT NULL
		UNION
		SELECT id FROM dept
		ORDER BY dept_id`)
	got := rowsAsStrings(res)
	if len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Errorf("union = %v", got)
	}
	res = mustExec(t, db, `
		SELECT dept_id FROM emp WHERE dept_id = 1
		UNION ALL
		SELECT dept_id FROM emp WHERE dept_id = 1`)
	if len(res.Rows) != 6 {
		t.Errorf("union all rows = %d", len(res.Rows))
	}
	if res.Plan != "union" {
		t.Errorf("plan = %q", res.Plan)
	}
}

func TestUnionOrderLimitAliases(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT name AS who, salary FROM emp WHERE dept_id = 1
		UNION
		SELECT name, salary FROM emp WHERE dept_id = 2
		ORDER BY salary DESC, who
		LIMIT 3 OFFSET 1`)
	got := rowsAsStrings(res)
	if len(got) != 3 || got[0] != "ada|120.0" {
		t.Errorf("union ordered = %v", got)
	}
	// Position-based ORDER BY.
	res = mustExec(t, db, `
		SELECT name FROM emp WHERE dept_id = 1
		UNION
		SELECT name FROM dept
		ORDER BY 1 DESC LIMIT 1`)
	if res.Rows[0][0] != "sales" {
		t.Errorf("union by position = %v", res.Rows[0][0])
	}
}

func TestUnionThreeArms(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT 1 UNION SELECT 2 UNION ALL SELECT 2 UNION SELECT 3 ORDER BY 1`)
	got := rowsAsStrings(res)
	// Left-to-right: {1}∪{2}→{1,2}; ++{2}→{1,2,2}; ∪{3} dedupes all →{1,2,3}.
	if len(got) != 3 || got[0] != "1" || got[2] != "3" {
		t.Errorf("chained union = %v", got)
	}
}

func TestUnionErrors(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Query("SELECT id, name FROM dept UNION SELECT id FROM dept"); err == nil {
		t.Error("mismatched arity accepted")
	}
	if _, err := db.Query("SELECT id FROM dept UNION SELECT id FROM dept ORDER BY salary"); err == nil {
		t.Error("ORDER BY on non-output column accepted")
	}
}

func TestUnionInSubquery(t *testing.T) {
	db := newTestDB(t)
	res := mustExec(t, db, `
		SELECT name FROM emp
		WHERE dept_id IN (SELECT id FROM dept WHERE name = 'eng' UNION SELECT 2)
		ORDER BY name`)
	if len(res.Rows) != 5 {
		t.Errorf("union subquery rows = %d", len(res.Rows))
	}
}

// TestIntegerOverflow: integer arithmetic and SUM report an overflow
// instead of wrapping around.
func TestIntegerOverflow(t *testing.T) {
	db := newTestDB(t)
	mustExec(t, db, "CREATE TABLE big (x INT, f FLOAT)")
	mustExec(t, db, "INSERT INTO big VALUES (9223372036854775807, 1.5), (1, 2.5)")
	for _, q := range []string{
		"SELECT SUM(x) FROM big",
		"SELECT x + 1 FROM big",
		"SELECT x * 2 FROM big",
		"SELECT -x - 2 FROM big",
		"SELECT (-x - 1) / -1 FROM big WHERE x > 1",
		"SELECT -(-x - 1) FROM big WHERE x > 1",
	} {
		res, err := db.Query(q)
		if err == nil || err.Error() != "sql: integer overflow" {
			t.Errorf("Query(%q) = %v, %v; want sql: integer overflow", q, res, err)
		}
	}
	// Sums that fit, and mixed sums that end as floats, still succeed.
	for q, want := range map[string]string{
		"SELECT SUM(x) FROM big WHERE x = 1":                         "1",
		"SELECT SUM(x - 1) FROM big":                                 "9223372036854775806",
		"SELECT x - 9223372036854775807 FROM big WHERE x > 1":        "0",
		"SELECT SUM(CASE WHEN x > 1 THEN x ELSE f END) FROM big":     "9.223372036854776e+18",
		"SELECT SUM(x) FROM big GROUP BY x ORDER BY 1":               "1",
		"SELECT x * -1 FROM big WHERE x > 1":                         "-9223372036854775807",
		"SELECT (-x - 1) / 1 FROM big WHERE x > 1":                   "-9223372036854775808",
		"SELECT COUNT(*) FROM big WHERE x + 0 = 9223372036854775807": "1",
	} {
		got := rowsAsStrings(mustExec(t, db, q))
		if len(got) == 0 || got[0] != want {
			t.Errorf("Query(%q) = %v, want first row %s", q, got, want)
		}
	}
}
