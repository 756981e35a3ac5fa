package workload

import (
	"math/rand"

	"github.com/odbis/odbis/internal/storage"
)

// Stmt is one statement of the closed-loop traffic mix: SQL text plus
// positional arguments, ready for Session.Query or the wire client.
// Write marks statements that mutate state (the load harness uses it to
// decide retry safety and to report read/write throughput separately).
type Stmt struct {
	SQL   string
	Args  []storage.Value
	Write bool
}

// Mix models the request stream a subscribed BI tenant sends the
// platform: mostly dashboard-style aggregate reads over an operational
// sales table, with a configurable fraction of single-row ingest
// writes. It is deterministic for a given *rand.Rand, so two harness
// runs with the same seed replay the same statement sequence — the
// property the HTTP-vs-binary A/B comparison depends on.
type Mix struct {
	// WritePct is the percentage of statements that are writes. The
	// zero value draws reads only; a negative value counts as 0.
	WritePct int
}

// MixTable is the operational table the mix reads and writes.
const MixTable = "ops_sales"

// mixRegions/mixCategories bound the dimension cardinalities of the
// generated rows (shared vocabulary with the Retail star generator).
var (
	mixRegions    = Regions
	mixCategories = Categories
)

// SetupStmts returns the DDL plus seedRows single-row inserts that
// prepare a tenant for the mix (seedRows <= 0 defaults to 200). Run
// them once per tenant before calling Next; the seed rows guarantee the
// read queries aggregate over real data from the first request.
func (m Mix) SetupStmts(rng *rand.Rand, seedRows int) []Stmt {
	if seedRows <= 0 {
		seedRows = 200
	}
	stmts := make([]Stmt, 0, seedRows+1)
	stmts = append(stmts, Stmt{
		SQL: "CREATE TABLE " + MixTable +
			" (region TEXT, category TEXT, qty INT, amount FLOAT)",
		Write: true,
	})
	for i := 0; i < seedRows; i++ {
		stmts = append(stmts, m.insert(rng))
	}
	return stmts
}

// ReadQueries is the canonical dashboard read set, in fixed order:
// a regional revenue rollup, a category breakdown, a filtered count,
// and a full count. Next draws reads uniformly from this slice.
var ReadQueries = []string{
	"SELECT region, SUM(amount) FROM " + MixTable + " GROUP BY region ORDER BY region",
	"SELECT category, SUM(qty), SUM(amount) FROM " + MixTable + " GROUP BY category ORDER BY category",
	"SELECT region, COUNT(*) FROM " + MixTable + " WHERE qty > ? GROUP BY region ORDER BY region",
	"SELECT COUNT(*) FROM " + MixTable,
}

// Next draws the next statement of the mix from rng: an ingest write
// with probability WritePct/100, otherwise one of ReadQueries.
func (m Mix) Next(rng *rand.Rand) Stmt {
	if rng.Intn(100) < m.WritePct {
		return m.insert(rng)
	}
	switch q := ReadQueries[rng.Intn(len(ReadQueries))]; q {
	case ReadQueries[2]:
		return Stmt{SQL: q, Args: []storage.Value{int64(rng.Intn(8))}}
	default:
		return Stmt{SQL: q}
	}
}

func (m Mix) insert(rng *rand.Rand) Stmt {
	return Stmt{
		SQL: "INSERT INTO " + MixTable + " (region, category, qty, amount) VALUES (?, ?, ?, ?)",
		Args: []storage.Value{
			mixRegions[rng.Intn(len(mixRegions))],
			mixCategories[rng.Intn(len(mixCategories))],
			int64(1 + rng.Intn(9)),
			float64(rng.Intn(50000)) / 100,
		},
		Write: true,
	}
}
