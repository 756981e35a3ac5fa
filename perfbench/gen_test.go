package main

import (
	"reflect"
	"testing"
	"time"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

func drawN(g generator, n int) []stmt {
	out := make([]stmt, n)
	for i := range out {
		out[i] = g()
	}
	return out
}

func TestGeneratorDeterministicForSeed(t *testing.T) {
	if !reflect.DeepEqual(genTable(7, 500), genTable(7, 500)) {
		t.Fatal("genTable differs between calls with one seed")
	}
	if reflect.DeepEqual(genTable(7, 500), genTable(8, 500)) {
		t.Fatal("genTable is the same for seeds 7 and 8")
	}
	rows := genTable(7, 500)
	for _, w := range workloads {
		for c := 0; c <= w.clients; c++ {
			a, b := drawN(w.stream(7, c, rows), 1000), drawN(w.stream(7, c, rows), 1000)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s stream %d differs between calls with one seed", w.name, c)
			}
		}
		if w.clients > 1 && reflect.DeepEqual(drawN(w.stream(7, 0, rows), 100), drawN(w.stream(7, 1, rows), 100)) {
			t.Fatalf("%s streams 0 and 1 are identical", w.name)
		}
	}
}

// TestOracleMatchesSQL runs each workload's statements on a small table
// through sql.DB directly and checks the answers against the oracle.
func TestOracleMatchesSQL(t *testing.T) {
	const n = 3 * purgeEvery
	rows := genTable(3, n)
	db := sql.NewDB(storage.MustOpenMemory())
	setup := append([]stmt{{sql: createSQL, write: true}}, loadStmts(rows)...)
	setup = append(setup, stmt{sql: indexSQL, write: true})
	for _, w := range workloads {
		g := w.stream(3, 0, rows)
		count := 200
		if w.name == "ingest" {
			// Enough purges to reach rows the stream itself inserted.
			count = (n/purgeEvery + 2) * (purgeEvery + 1)
		}
		// Setup first, then the workload, on a fresh table each time.
		if _, err := db.Query("DROP TABLE IF EXISTS " + tableName); err != nil {
			t.Fatal(err)
		}
		for _, s := range append(append([]stmt(nil), setup...), drawN(g, count)...) {
			res, err := db.Query(s.sql, s.args...)
			if err != nil {
				t.Fatalf("%s: %s: %v", w.name, s.sql, err)
			}
			if err := s.check(res.Rows, res.Affected); err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
		}
	}
}

func TestCheckRejectsWrongAnswers(t *testing.T) {
	rows := genTable(5, 50)
	s := lookupStream(5, 0, rows)()
	if err := s.check(nil, 0); err == nil {
		t.Error("missing row accepted")
	}
	bad := append(storage.Row(nil), s.want[0]...)
	bad[4] = bad[4].(float64) + 0.01
	if err := s.check([]storage.Row{bad}, 0); err == nil {
		t.Error("wrong amount accepted")
	}
	close := append(storage.Row(nil), s.want[0]...)
	close[4] = close[4].(float64) * (1 + floatTol/2)
	if err := s.check([]storage.Row{close}, 0); err != nil {
		t.Errorf("amount within tolerance rejected: %v", err)
	}
	ins := ingestStream(5, 0, rows)()
	if err := ins.check(nil, 0); err == nil {
		t.Error("insert affecting 0 rows accepted")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		out := make([]time.Duration, len(vs))
		for i, v := range vs {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	ten := ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	twenty := ms(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20)
	for _, tc := range []struct {
		sorted []time.Duration
		p      float64
		want   int
	}{
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 95, 10},
		{ten, 100, 10},
		{ten, 0, 1},
		{ten, 1, 1},
		{twenty, 95, 19},
		{twenty, 50, 10},
		{ms(42), 95, 42},
	} {
		if got := percentile(tc.sorted, tc.p); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("percentile(%d samples, %v) = %v, want %dms", len(tc.sorted), tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %v, want 0", got)
	}
}
