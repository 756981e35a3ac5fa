package services

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/odbis/odbis/internal/etl"
	"github.com/odbis/odbis/internal/tenant"
)

// cappedTenant moves acme onto a plan capped at maxRows and creates the
// table facts for the designer.
func cappedTenant(t *testing.T, maxRows int) (*Platform, *Session) {
	t.Helper()
	p, _ := newPlatform(t)
	if err := p.Registry.DefinePlan(tenant.Plan{Name: "capped", MaxTables: 10, MaxRows: maxRows}); err != nil {
		t.Fatal(err)
	}
	if err := p.Registry.SetPlan("acme", "capped"); err != nil {
		t.Fatal(err)
	}
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE facts (id INT, src TEXT)"); err != nil {
		t.Fatal(err)
	}
	return p, ada
}

func tenantRows(t *testing.T, s *Session) int {
	t.Helper()
	n, err := s.Catalog.RowCount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRowCapRaceSQLAndETL: inserters through the services SQL path and
// through an ETL TableSink race from cap-1; the storage check admits
// exactly one of them, so exactly cap rows land and every other insert
// gets ErrQuota. Run under -race in CI.
func TestRowCapRaceSQLAndETL(t *testing.T) {
	const maxRows, workers, attempts = 40, 6, 4
	p, ada := cappedTenant(t, maxRows)
	ctx := context.Background()
	for i := 0; i < maxRows-1; i++ {
		if _, err := ada.Query(ctx, "INSERT INTO facts VALUES (?, 'seed')", int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	sink := &etl.TableSink{Engine: p.Registry.Engine(), Table: ada.Catalog.Physical("facts"), BatchSize: 1}
	var landed, refused atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		s := designer(t, p)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < attempts; i++ {
				id := int64(1000 + w*attempts + i)
				var err error
				if w%2 == 0 {
					_, err = s.Query(ctx, "INSERT INTO facts VALUES (?, 'sql')", id)
				} else {
					_, err = sink.Write(ctx, []etl.Record{{"id": id, "src": "etl"}})
				}
				switch {
				case err == nil:
					landed.Add(1)
				case errors.Is(err, tenant.ErrQuota):
					refused.Add(1)
				default:
					t.Error(err)
				}
			}
		}(w)
	}
	wg.Wait()
	if landed.Load() != 1 || refused.Load() != workers*attempts-1 {
		t.Fatalf("landed %d refused %d, want 1 and %d", landed.Load(), refused.Load(), workers*attempts-1)
	}
	if got := tenantRows(t, ada); got != maxRows {
		t.Fatalf("tenant rows = %d, want %d", got, maxRows)
	}
	res, err := ada.Query(ctx, "SELECT COUNT(*) FROM facts")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != int64(maxRows) {
		t.Fatalf("COUNT(*) = %v, want %d", res.Rows[0][0], maxRows)
	}
}

// TestETLJobPastRowCapFails: an integration job whose load would pass
// the plan's row cap fails with ErrQuota and commits none of its batch.
func TestETLJobPastRowCapFails(t *testing.T) {
	_, ada := cappedTenant(t, 5)
	ctx := context.Background()
	if _, err := ada.Query(ctx, "INSERT INTO facts VALUES (1, 'sql'), (2, 'sql')"); err != nil {
		t.Fatal(err)
	}
	var csv strings.Builder
	csv.WriteString("id,src\n")
	for i := 0; i < 4; i++ {
		fmt.Fprintf(&csv, "%d,etl\n", 10+i)
	}
	spec := &JobSpec{Name: "overfill", CSVData: csv.String(), Target: "facts"}
	if _, err := ada.RunJob(ctx, spec); !errors.Is(err, tenant.ErrQuota) {
		t.Fatalf("job past the cap: err = %v, want ErrQuota", err)
	}
	if got := tenantRows(t, ada); got != 2 {
		t.Fatalf("failed job left %d rows, want 2", got)
	}
	// A load that fits still runs.
	spec.CSVData = "id,src\n20,etl\n21,etl\n22,etl\n"
	report, err := ada.RunJob(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if report.TotalWritten() != 3 || tenantRows(t, ada) != 5 {
		t.Fatalf("written %d, rows %d; want 3 and 5", report.TotalWritten(), tenantRows(t, ada))
	}
}
