package main

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

// The benchmark owns its table, statement generator and expected-answer
// oracle, so that no edit to the platform's own workload package can
// change what is measured.

const (
	tableName  = "sales"
	tableRows  = 20000
	loadBatch  = 500
	purgeEvery = 200
	maxQty     = 9
	// floatTol is the relative tolerance for floating-point SUMs: the
	// engine may add amounts in another order than the oracle does.
	floatTol = 1e-9
)

var (
	regions    = []string{"africa", "americas", "asia", "europe", "middle-east", "oceania"}
	categories = []string{"apparel", "books", "electronics", "garden", "grocery", "health", "sports", "toys"}
)

const (
	createSQL = "CREATE TABLE " + tableName + " (id INT, region TEXT, category TEXT, qty INT, amount FLOAT)"
	indexSQL  = "CREATE INDEX " + tableName + "_id ON " + tableName + " (id)"
	insertSQL = "INSERT INTO " + tableName + " (id, region, category, qty, amount) VALUES (?, ?, ?, ?, ?)"
	purgeSQL  = "DELETE FROM " + tableName + " WHERE id < ?"
	lookupSQL = "SELECT id, region, category, qty, amount FROM " + tableName + " WHERE id = ?"
)

// dashboardSQL are the four dashboard reads, indexed by statement kind:
// the region rollup, the category rollup, the filtered grouped count
// and the full count.
var dashboardSQL = []string{
	"SELECT region, COUNT(*), SUM(qty), SUM(amount) FROM " + tableName + " GROUP BY region ORDER BY region",
	"SELECT category, SUM(qty), SUM(amount) FROM " + tableName + " GROUP BY category ORDER BY category",
	"SELECT region, COUNT(*) FROM " + tableName + " WHERE qty > ? GROUP BY region ORDER BY region",
	"SELECT COUNT(*) FROM " + tableName,
}

// row is one row of the benchmark table.
type row struct {
	id       int64
	region   string
	category string
	qty      int64
	amount   float64
}

func (r row) values() storage.Row {
	return storage.Row{r.id, r.region, r.category, r.qty, r.amount}
}

func genRow(rng *rand.Rand, id int64) row {
	return row{
		id:       id,
		region:   regions[rng.Intn(len(regions))],
		category: categories[rng.Intn(len(categories))],
		qty:      int64(1 + rng.Intn(maxQty)),
		amount:   float64(rng.Intn(50000)) / 100,
	}
}

// genTable returns the n preloaded rows for a seed, with ids 0..n-1.
func genTable(seed int64, n int) []row {
	rng := rand.New(rand.NewSource(seed))
	rows := make([]row, n)
	for i := range rows {
		rows[i] = genRow(rng, int64(i))
	}
	return rows
}

// streamRand is the random source of client stream c; it differs from
// the table's source and from every other stream's.
func streamRand(seed int64, c int) *rand.Rand {
	return rand.New(rand.NewSource(seed*7919 + int64(c) + 1))
}

// stmt is one generated statement with the answer it must produce.
type stmt struct {
	kind  int // index into the workload's kinds
	sql   string
	args  []storage.Value
	write bool
	// want is the expected result set of a read; affected is the
	// expected affected-row count of a write.
	want     []storage.Row
	affected int
}

// check compares a statement's answer with the expected one.
func (s *stmt) check(rows []storage.Row, affected int) error {
	if s.write {
		if affected != s.affected {
			return fmt.Errorf("%s: %d rows affected, want %d", s.sql, affected, s.affected)
		}
		return nil
	}
	if len(rows) != len(s.want) {
		return fmt.Errorf("%s: %d rows, want %d", s.sql, len(rows), len(s.want))
	}
	for i, want := range s.want {
		if len(rows[i]) != len(want) {
			return fmt.Errorf("%s: row %d has %d columns, want %d", s.sql, i, len(rows[i]), len(want))
		}
		for j, w := range want {
			if !sameValue(rows[i][j], w) {
				return fmt.Errorf("%s: row %d column %d is %v, want %v", s.sql, i, j, rows[i][j], w)
			}
		}
	}
	return nil
}

func sameValue(got, want storage.Value) bool {
	switch w := want.(type) {
	case float64:
		g, ok := got.(float64)
		return ok && math.Abs(g-w) <= floatTol*math.Max(1, math.Abs(w))
	default:
		return got == want
	}
}

// --- the expected-answer oracle ---

type groupAgg struct {
	count int64
	qty   int64
	sum   float64
}

func groupBy(rows []row, key func(row) string, keep func(row) bool) ([]string, map[string]*groupAgg) {
	groups := map[string]*groupAgg{}
	for _, r := range rows {
		if !keep(r) {
			continue
		}
		k := key(r)
		g := groups[k]
		if g == nil {
			g = &groupAgg{}
			groups[k] = g
		}
		g.count++
		g.qty += r.qty
		g.sum += r.amount
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys, groups
}

func all(row) bool          { return true }
func byRegion(r row) string { return r.region }

// dashboardAnswers returns the expected result of each dashboard read
// over rows: answers[kind] for kinds 0, 1 and 3, and filtered[q] for
// the filtered count with qty > q, for q in [0, maxQty).
func dashboardAnswers(rows []row) (answers [][]storage.Row, filtered [][]storage.Row) {
	answers = make([][]storage.Row, len(dashboardSQL))
	keys, g := groupBy(rows, byRegion, all)
	for _, k := range keys {
		answers[0] = append(answers[0], storage.Row{k, g[k].count, g[k].qty, g[k].sum})
	}
	keys, g = groupBy(rows, func(r row) string { return r.category }, all)
	for _, k := range keys {
		answers[1] = append(answers[1], storage.Row{k, g[k].qty, g[k].sum})
	}
	answers[3] = []storage.Row{{int64(len(rows))}}
	filtered = make([][]storage.Row, maxQty)
	for q := range filtered {
		keys, g = groupBy(rows, byRegion, func(r row) bool { return r.qty > int64(q) })
		for _, k := range keys {
			filtered[q] = append(filtered[q], storage.Row{k, g[k].count})
		}
	}
	return answers, filtered
}

// --- workloads ---

// generator yields the statements of one closed-loop client.
type generator func() stmt

// workload is one named traffic mix over the preloaded table.
type workload struct {
	name    string
	clients int
	// growth is how many rows beyond tableRows the table may hold
	// during a run.
	growth int
	// kinds names the statement kinds a generator yields.
	kinds []string
	// stream returns client c's generator over the preloaded rows.
	stream func(seed int64, c int, rows []row) generator
}

var workloads = []workload{
	{
		name:    "dashboard",
		clients: 2,
		kinds:   []string{"region_rollup", "category_rollup", "filtered_count", "count"},
		stream:  dashboardStream,
	},
	{
		name:    "lookup",
		clients: 2,
		kinds:   []string{"point_select"},
		stream:  lookupStream,
	},
	{
		name:    "ingest",
		clients: 1,
		growth:  purgeEvery,
		kinds:   []string{"insert", "purge"},
		stream:  ingestStream,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func dashboardStream(seed int64, c int, rows []row) generator {
	rng := streamRand(seed, c)
	answers, filtered := dashboardAnswers(rows)
	return func() stmt {
		k := rng.Intn(len(dashboardSQL))
		s := stmt{kind: k, sql: dashboardSQL[k], want: answers[k]}
		if k == 2 {
			q := rng.Intn(maxQty)
			s.args = []storage.Value{int64(q)}
			s.want = filtered[q]
		}
		return s
	}
}

func lookupStream(seed int64, c int, rows []row) generator {
	rng := streamRand(seed, c)
	return func() stmt {
		r := rows[rng.Intn(len(rows))]
		return stmt{sql: lookupSQL, args: []storage.Value{r.id}, want: []storage.Row{r.values()}}
	}
}

// ingestStream inserts rows with ids following the preloaded ones and,
// after every purgeEvery inserts, deletes the purgeEvery oldest rows,
// so the table stays between len(rows) and len(rows)+purgeEvery rows.
// It assumes it is the table's only writer.
func ingestStream(seed int64, c int, rows []row) generator {
	rng := streamRand(seed, c)
	nextID, oldest, since := int64(len(rows)), int64(0), 0
	return func() stmt {
		if since == purgeEvery {
			since = 0
			oldest += purgeEvery
			return stmt{kind: 1, sql: purgeSQL, args: []storage.Value{oldest}, write: true, affected: purgeEvery}
		}
		r := genRow(rng, nextID)
		nextID++
		since++
		return stmt{sql: insertSQL, args: r.values(), write: true, affected: 1}
	}
}

// loadStmts returns the multi-row INSERTs that preload rows.
func loadStmts(rows []row) []stmt {
	var out []stmt
	for lo := 0; lo < len(rows); lo += loadBatch {
		hi := min(lo+loadBatch, len(rows))
		args := make([]storage.Value, 0, 5*(hi-lo))
		for _, r := range rows[lo:hi] {
			args = append(args, r.values()...)
		}
		text := strings.TrimSuffix(insertSQL+strings.Repeat(", (?, ?, ?, ?, ?)", hi-lo), ", (?, ?, ?, ?, ?)")
		out = append(out, stmt{sql: text, args: args, write: true, affected: hi - lo})
	}
	return out
}
