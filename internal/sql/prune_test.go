package sql

import (
	"reflect"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// pruneDB holds e(a, b, z) with an index on a, and f(a, c).
func pruneDB(t *testing.T) *DB {
	t.Helper()
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	db := NewDB(e)
	mustExec(t, db, "CREATE TABLE e (a INT, b INT, z TEXT)")
	mustExec(t, db, "CREATE INDEX e_a ON e (a)")
	mustExec(t, db, "CREATE TABLE f (a INT, c INT)")
	mustExec(t, db, "INSERT INTO e VALUES (1, 10, 'x'), (2, 20, 'y'), (3, 10, 'x'), (4, 30, NULL)")
	mustExec(t, db, "INSERT INTO f VALUES (1, 10), (2, 30), (5, 10)")
	return db
}

// scanCols plans q and returns, for every arm, the column lists of its
// base scan and joined scans.
func scanCols(t *testing.T, db *DB, q string) [][][]int {
	t.Helper()
	st, err := Parse(q)
	if err != nil {
		t.Fatal(err)
	}
	p, err := planSelect(db, st.(*SelectStmt), nil)
	if err != nil {
		t.Fatal(err)
	}
	var out [][][]int
	for _, arm := range p.arms {
		cols := [][]int{arm.base.cols}
		for _, js := range arm.joins {
			cols = append(cols, js.scan.cols)
		}
		out = append(out, cols)
	}
	return out
}

// TestColumnPruning: each scan fills only the columns its plan reads,
// a column read only by a correlated subquery, HAVING, a star or a
// grouped non-key item included, and the answers are those of a scan
// of every column.
func TestColumnPruning(t *testing.T) {
	db := pruneDB(t)
	cases := []struct {
		name string
		q    string
		cols [][][]int // per arm, per scan
		want []string
	}{
		{
			name: "correlated exists reads an outer column",
			q:    "SELECT a FROM e WHERE EXISTS (SELECT 1 FROM f WHERE f.c = e.b) ORDER BY a",
			cols: [][][]int{{{0, 1}}},
			want: []string{"1", "3", "4"},
		},
		{
			name: "correlated scalar subquery reads an outer column",
			q:    "SELECT a, (SELECT MAX(f.a) FROM f WHERE f.c = e.b) FROM e ORDER BY a",
			cols: [][][]int{{{0, 1}}},
			want: []string{"1|5", "2|NULL", "3|5", "4|2"},
		},
		{
			name: "star reads every column",
			q:    "SELECT * FROM e WHERE b > 15 ORDER BY a",
			cols: [][][]int{{{0, 1, 2}}},
			want: []string{"2|20|y", "4|30|NULL"},
		},
		{
			name: "grouped item that is not a key comes from the representative row",
			q:    "SELECT b, z, COUNT(*) FROM e GROUP BY b ORDER BY b",
			cols: [][][]int{{{1, 2}}},
			want: []string{"10|x|2", "20|y|1", "30|NULL|1"},
		},
		{
			name: "column read only in HAVING",
			q:    "SELECT b, COUNT(*) FROM e GROUP BY b HAVING MAX(a) > 2 ORDER BY b",
			cols: [][][]int{{{0, 1}}},
			want: []string{"10|2", "30|1"},
		},
		{
			name: "cross join with the left table pruned away",
			q:    "SELECT f.a, f.c FROM e CROSS JOIN f WHERE f.c > 10",
			cols: [][][]int{{{}, {0, 1}}},
			want: []string{"2|30", "2|30", "2|30", "2|30"},
		},
		{
			name: "hash join reads the left key only",
			q:    "SELECT f.c FROM e JOIN f ON e.a = f.a ORDER BY f.c",
			cols: [][][]int{{{0}, {0, 1}}},
			want: []string{"10", "30"},
		},
		{
			name: "left join null-extends only read columns",
			q:    "SELECT e.z, f.c FROM e LEFT JOIN f ON f.a = e.a ORDER BY e.a",
			cols: [][][]int{{{0, 2}, {0, 1}}},
			want: []string{"x|10", "y|30", "x|NULL", "NULL|NULL"},
		},
		{
			name: "index path beside a pruned full scan in a union",
			q:    "SELECT b FROM e WHERE a = 2 UNION ALL SELECT b FROM e WHERE z = 'x'",
			cols: [][][]int{{{0, 1}}, {{1, 2}}},
			want: []string{"20", "10", "10"},
		},
	}
	for _, tc := range cases {
		if got := scanCols(t, db, tc.q); !reflect.DeepEqual(got, tc.cols) {
			t.Errorf("%s: scan columns = %v, want %v", tc.name, got, tc.cols)
		}
		got := rowsAsStrings(mustExec(t, db, tc.q))
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: rows = %v, want %v", tc.name, got, tc.want)
		}
	}
	// The union's first arm takes the index path.
	st, _ := Parse(cases[len(cases)-1].q)
	p, err := planSelect(db, st.(*SelectStmt), nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.arms[0].base.access != accessIndexEq || p.arms[1].base.access != accessFull {
		t.Errorf("union arms take %v and %v, want an index probe and a full scan",
			p.arms[0].base.access, p.arms[1].base.access)
	}
}
