package sql

import (
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// TestUnknownColumnsFailWithoutRows: column names are resolved when a
// statement is planned, so an unknown or ambiguous column fails the
// statement whether or not the tables hold rows, and a SELECT that
// fails this way never enters the plan cache.
func TestUnknownColumnsFailWithoutRows(t *testing.T) {
	cases := []struct {
		clause, query, want string
	}{
		{"select list", "SELECT nope FROM e", `unknown column "nope"`},
		{"qualified select list", "SELECT x.a FROM e", "unknown column x.a"},
		{"where", "SELECT a FROM e WHERE nope = 1", `unknown column "nope"`},
		{"where ambiguous", "SELECT e.a FROM e CROSS JOIN f WHERE a = 1", "ambiguous"},
		{"group by", "SELECT COUNT(*) FROM e GROUP BY nope", `unknown column "nope"`},
		{"having", "SELECT b, COUNT(*) FROM e GROUP BY b HAVING SUM(nope) > 1", `unknown column "nope"`},
		{"order by", "SELECT a FROM e ORDER BY nope", `unknown column "nope"`},
		{"join on", "SELECT e.a FROM e JOIN f ON e.a = f.nope", "unknown column f.nope"},
		{"join select ambiguous", "SELECT a FROM e JOIN f ON e.a = f.a", "ambiguous"},
		{"correlated subquery", "SELECT a FROM e WHERE EXISTS (SELECT 1 FROM f WHERE f.c = e.nope)", "unknown column e.nope"},
		{"scalar subquery", "SELECT (SELECT MAX(nope) FROM f) FROM e", `unknown column "nope"`},
		{"in subquery", "SELECT a FROM e WHERE a IN (SELECT nope FROM f)", `unknown column "nope"`},
		{"update where", "UPDATE e SET a = 1 WHERE nope = 1", `unknown column "nope"`},
		{"update set", "UPDATE e SET a = nope", `unknown column "nope"`},
		{"delete where", "DELETE FROM e WHERE nope = 1", `unknown column "nope"`},
		{"insert values", "INSERT INTO e VALUES (a, 'x')", "not allowed here"},
	}
	for _, rows := range []int{0, 1} {
		e := storage.MustOpenMemory()
		t.Cleanup(func() { e.Close() })
		db := NewDB(e)
		mustExec(t, db, "CREATE TABLE e (a INT, b TEXT)")
		mustExec(t, db, "CREATE TABLE f (a INT, c INT)")
		if rows == 1 {
			mustExec(t, db, "INSERT INTO e VALUES (1, 'x')")
			mustExec(t, db, "INSERT INTO f VALUES (1, 1)")
		}
		for _, tc := range cases {
			before := db.PlanCacheStats().Entries
			for attempt := 0; attempt < 2; attempt++ {
				_, err := db.Query(tc.query)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Errorf("%d rows, %s, attempt %d: Query(%q) = %v, want error containing %q",
						rows, tc.clause, attempt, tc.query, err, tc.want)
				}
			}
			if after := db.PlanCacheStats().Entries; after != before {
				t.Errorf("%d rows, %s: plan cache grew from %d to %d entries on a failed statement",
					rows, tc.clause, before, after)
			}
		}

		// The same shapes with the names fixed run, correlated
		// references resolving in the enclosing statement.
		for _, q := range []string{
			"SELECT a FROM e WHERE EXISTS (SELECT 1 FROM f WHERE f.c = e.a)",
			"SELECT (SELECT MAX(c) FROM f WHERE f.a = e.a) FROM e",
			"SELECT e.a FROM e JOIN f ON e.a = f.a ORDER BY b",
			"SELECT b, COUNT(*) FROM e GROUP BY b HAVING SUM(a) > 0",
		} {
			res := mustExec(t, db, q)
			if len(res.Rows) != rows {
				t.Errorf("%d rows: Query(%q) returned %d rows", rows, q, len(res.Rows))
			}
		}
	}
}

// TestBindingDoesNotTouchSharedStatement: binding copies expressions;
// the parsed statement the plan cache shares keeps its ColumnRefs, so
// a replan after DDL starts from the original names.
func TestBindingDoesNotTouchSharedStatement(t *testing.T) {
	db := newTestDB(t)
	st, err := db.Prepare("", "SELECT name FROM emp WHERE salary > 100 ORDER BY name", nil)
	if err != nil {
		t.Fatal(err)
	}
	sel := st.Statement().(*SelectStmt)
	if _, ok := sel.Items[0].Expr.(*ColumnRef); !ok {
		t.Fatalf("select item is %T after Prepare, want the parsed *ColumnRef", sel.Items[0].Expr)
	}
	if _, ok := sel.Where.(*BinaryExpr).Left.(*ColumnRef); !ok {
		t.Fatalf("WHERE operand rewritten in the shared statement")
	}
	mustExec(t, db, "CREATE INDEX emp_salary ON emp (salary)")
	res, err := db.Run(t.Context(), st, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(rowsAsStrings(res), ";"); got != "ada;edsger;grace" {
		t.Fatalf("after replan: %s", got)
	}
}
