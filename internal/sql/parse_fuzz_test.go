package sql

import (
	"reflect"
	"testing"
)

// FuzzParse throws arbitrary text at the tenant statement path's two
// pure stages: Parse, then RewriteTables with a namespacing function
// (what tenant.Catalog hands to DB.Prepare). Neither may panic on any
// input, and a rewrite keeps the statement's kind — a SELECT stays a
// SELECT, so replica routing and authorization see what will run.
func FuzzParse(f *testing.F) {
	for _, seed := range []string{
		"SELECT 1",
		"SELECT * FROM t",
		"SELECT a, SUM(b) AS s FROM t WHERE c > ? AND d LIKE 'x%' GROUP BY a HAVING SUM(b) > 1 ORDER BY s DESC LIMIT 5 OFFSET 1",
		"SELECT e.name, d.name FROM emp e LEFT JOIN dept d ON e.dept_id = d.id",
		"SELECT x FROM t WHERE x IN (SELECT y FROM u WHERE u.z = t.x)",
		"SELECT a FROM t UNION ALL SELECT b FROM u ORDER BY 1",
		"SELECT CASE WHEN a IS NULL THEN 0 ELSE CAST(a AS FLOAT) END FROM t",
		"EXPLAIN SELECT * FROM t WHERE id BETWEEN 1 AND 9",
		"INSERT INTO t (a, b) VALUES (1, 'x'), (?, NULL)",
		"UPDATE t SET a = a + 1 WHERE b = (SELECT MAX(b) FROM u)",
		"DELETE FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE u.id = t.id)",
		"CREATE TABLE IF NOT EXISTS t (id INT PRIMARY KEY, name TEXT NOT NULL, v FLOAT DEFAULT 1.5)",
		"CREATE INDEX t_v ON t (v)",
		"DROP INDEX t_v ON t",
		"DROP TABLE IF EXISTS t",
		"SELECT ((((", "'", "/* unterminated", "SELECT 1e999999", "SELECT \x00",
	} {
		f.Add(seed)
	}
	prefix := func(name string) string { return "t_fuzz__" + name }
	f.Fuzz(func(t *testing.T, text string) {
		stmt, err := Parse(text)
		if err != nil {
			return
		}
		out := RewriteTables(stmt, prefix)
		if reflect.TypeOf(out) != reflect.TypeOf(stmt) {
			t.Fatalf("RewriteTables(%q) turned %T into %T", text, stmt, out)
		}
	})
}
