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

// BenchmarkGroupByScan is a dashboard-style rollup: a 20k-row GROUP BY
// on a text column with COUNT(*) and two SUMs. Its allocation count is
// the per-row cost of the read path — column binding, visibility and
// group-key encoding must not allocate per row.
func BenchmarkGroupByScan(b *testing.B) {
	db := newTestDB(b)
	mustExec(b, db, `CREATE TABLE sales (id INT PRIMARY KEY, region TEXT, qty INT, amount FLOAT)`)
	regions := []string{"north", "south", "east", "west", "center"}
	err := db.Engine.Update(func(tx *storage.Tx) error {
		for i := 0; i < vecScanRows; i++ {
			row := storage.Row{int64(i), regions[i%len(regions)], int64(i % 50), float64(i%1000) / 10}
			if _, err := tx.Insert("sales", row); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
	q := "SELECT region, COUNT(*), SUM(qty), SUM(amount) FROM sales GROUP BY region ORDER BY region"
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != len(regions) {
			b.Fatalf("rows = %d", len(res.Rows))
		}
	}
}
