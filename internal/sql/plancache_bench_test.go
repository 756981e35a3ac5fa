package sql

import (
	"fmt"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// BenchmarkPlanCacheHit measures the steady-state read path: the text
// is cached and fresh, so each iteration is one LRU lookup plus plan
// execution — no lexer, parser, or planner work.
func BenchmarkPlanCacheHit(b *testing.B) {
	db := bigJoinDB(b, 1000)
	q := "SELECT SUM(v) FROM big WHERE dept_id = 1"
	if _, err := db.Query(q); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanCacheMiss is the same query with caching disabled:
// every iteration pays parse + plan before executing. The delta
// against BenchmarkPlanCacheHit is what the cache saves per request.
func BenchmarkPlanCacheMiss(b *testing.B) {
	SetPlanCacheEnabled(false)
	defer SetPlanCacheEnabled(true)
	db := bigJoinDB(b, 1000)
	q := "SELECT SUM(v) FROM big WHERE dept_id = 1"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

const vecScanRows = 20000

func vecScanDB(b *testing.B) *DB {
	b.Helper()
	db := newTestDB(b)
	mustExec(b, db, `CREATE TABLE vec (id INT PRIMARY KEY, v FLOAT)`)
	err := db.Engine.Update(func(tx *storage.Tx) error {
		for i := 0; i < vecScanRows; i++ {
			if _, err := tx.Insert("vec", storage.Row{int64(i), float64(i % 97)}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkVectorScan streams the table batch-at-a-time through
// storage.BatchScanner — the access pattern of the vectorized SQL
// executor. BenchmarkRowScan is the row-at-a-time Tx.Scan baseline it
// replaced; the per-op delta is the batching win at the storage edge.
func BenchmarkVectorScan(b *testing.B) {
	db := vecScanDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := db.Engine.View(func(tx *storage.Tx) error {
			return tx.ScanBatches("vec", execBatchRows, func(batch *storage.Batch) error {
				col := batch.Cols[1]
				for r := 0; r < batch.Len(); r++ {
					sum += col[r].(float64)
				}
				return nil
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

func BenchmarkRowScan(b *testing.B) {
	db := vecScanDB(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		err := db.Engine.View(func(tx *storage.Tx) error {
			return tx.Scan("vec", func(_ storage.RID, row storage.Row) bool {
				sum += row[1].(float64)
				return true
			})
		})
		if err != nil {
			b.Fatal(err)
		}
		if sum == 0 {
			b.Fatal("empty scan")
		}
	}
}

// BenchmarkVectorQuery_SumScan is the end-to-end SQL aggregate over
// the same table — the number the Figure 4 SQL-layer budget tracks.
func BenchmarkVectorQuery_SumScan(b *testing.B) {
	db := vecScanDB(b)
	q := "SELECT SUM(v) FROM vec"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 1 {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}

// BenchmarkPlanCacheHitParallel checks the cache under contention:
// many goroutines re-running the same dashboard query must not
// serialize on the cache mutex beyond the lookup itself.
func BenchmarkPlanCacheHitParallel(b *testing.B) {
	db := bigJoinDB(b, 1000)
	queries := make([]string, 8)
	for i := range queries {
		queries[i] = fmt.Sprintf("SELECT SUM(v) FROM big WHERE dept_id = %d", i%3+1)
		if _, err := db.Query(queries[i]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			if _, err := db.Query(queries[i%len(queries)]); err != nil {
				b.Fatal(err)
			}
			i++
		}
	})
}

// BenchmarkGroupByScan runs the four dashboard reads of the repo
// benchmark (perfbench) in-process over the same 20k-row, 5-column
// table shape: two grouped rollups on a text column, a grouped count
// behind a `qty > ?` filter, and a bare COUNT(*). Their allocation
// counts are the per-row cost of the grouped read path — column
// pruning, visibility, group ids and the aggregate kernels must not
// allocate per row.
func BenchmarkGroupByScan(b *testing.B) {
	db := newTestDB(b)
	mustExec(b, db, `CREATE TABLE sales (id INT, region TEXT, category TEXT, qty INT, amount FLOAT)`)
	mustExec(b, db, `CREATE INDEX sales_id ON sales (id)`)
	regions := []string{"africa", "americas", "asia", "europe", "middle-east", "oceania"}
	categories := []string{"apparel", "books", "electronics", "garden", "grocery", "health", "sports", "toys"}
	err := db.Engine.Update(func(tx *storage.Tx) error {
		for i := 0; i < vecScanRows; i++ {
			row := storage.Row{int64(i), regions[i%len(regions)], categories[(i/7)%len(categories)],
				int64(1 + i%9), float64(i%50000) / 100}
			if _, err := tx.Insert("sales", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		q    string
		args []storage.Value
		rows int
	}{
		{"region_rollup", "SELECT region, COUNT(*), SUM(qty), SUM(amount) FROM sales GROUP BY region ORDER BY region", nil, len(regions)},
		{"category_rollup", "SELECT category, SUM(qty), SUM(amount) FROM sales GROUP BY category ORDER BY category", nil, len(categories)},
		{"filtered_count", "SELECT region, COUNT(*) FROM sales WHERE qty > ? GROUP BY region ORDER BY region", []storage.Value{int64(4)}, len(regions)},
		{"count_star", "SELECT COUNT(*) FROM sales", nil, 1},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := db.Query(c.q, c.args...)
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) != c.rows {
					b.Fatalf("rows = %d", len(res.Rows))
				}
			}
		})
	}
}
