package services

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/replica"
	"github.com/odbis/odbis/internal/sql"
)

// attachReplicas wires n replicas into a test platform and waits for the
// fleet to come up. The long probe interval keeps deliberately tripped
// replicas tripped for the duration of a test.
func attachReplicas(t *testing.T, p *Platform, n int, maxLag uint64) *replica.Set {
	t.Helper()
	set := replica.New(p.Registry.Engine(), n, replica.Options{
		MaxLagFrames:  maxLag,
		ProbeInterval: time.Hour,
	})
	t.Cleanup(set.Close)
	p.AttachReplicas(set)
	if !set.CatchUp(5 * time.Second) {
		t.Fatal("replicas never caught up after attach")
	}
	return set
}

func mustQuery(t *testing.T, s *Session, q string) int {
	t.Helper()
	res, err := s.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("query %q: %v", q, err)
	}
	return len(res.Rows)
}

// TestReplicaRoutedReads: SELECTs are served from a caught-up replica
// (the replica read counter advances), writes stay on the primary, and
// the results match what the primary would serve.
func TestReplicaRoutedReads(t *testing.T) {
	p, _ := newPlatform(t)
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE sales (region TEXT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		q := fmt.Sprintf("INSERT INTO sales VALUES ('r%d', %d)", i, i*10)
		if _, err := ada.Query(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	set := attachReplicas(t, p, 2, 1024)

	before := mReadsReplica.Value()
	if n := mustQuery(t, ada, "SELECT region, amount FROM sales"); n != 5 {
		t.Fatalf("routed read rows = %d, want 5", n)
	}
	if mReadsReplica.Value() != before+1 {
		t.Fatalf("replica read counter = %d, want %d (read was not routed)", mReadsReplica.Value(), before+1)
	}

	// A write after attach pins the session; once the replica catches up
	// the next read routes again and sees the write.
	if _, err := ada.Query(context.Background(), "INSERT INTO sales VALUES ('r5', 50)"); err != nil {
		t.Fatal(err)
	}
	if !set.CatchUp(5 * time.Second) {
		t.Fatal("replicas never caught up after write")
	}
	before = mReadsReplica.Value()
	if n := mustQuery(t, ada, "SELECT region FROM sales"); n != 6 {
		t.Fatalf("read-after-write rows = %d, want 6", n)
	}
	if mReadsReplica.Value() != before+1 {
		t.Fatal("caught-up read after own write was not routed to a replica")
	}
}

// TestReplicaFallbackMidRequest: a replica failure during a routed read
// — injected error, injected panic, or a tripped fleet — falls back to
// the primary within the same request. The caller never sees an error.
func TestReplicaFallbackMidRequest(t *testing.T) {
	defer fault.Reset()
	p, _ := newPlatform(t)
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE t (x INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Query(context.Background(), "INSERT INTO t VALUES (1)"); err != nil {
		t.Fatal(err)
	}
	attachReplicas(t, p, 1, 1024)

	// Injected replica-read error: silent same-request fallback.
	if err := fault.Arm(fault.ReplicaRead, fault.Behavior{Mode: fault.ModeError, Count: 1}); err != nil {
		t.Fatal(err)
	}
	beforeP := mReadsPrimary.Value()
	if n := mustQuery(t, ada, "SELECT x FROM t"); n != 1 {
		t.Fatalf("rows under injected read error = %d, want 1", n)
	}
	if mReadsPrimary.Value() != beforeP+1 {
		t.Fatal("fallback read was not counted against the primary")
	}

	// Injected panic mid-read: contained by the router, same fallback.
	if err := fault.Arm(fault.ReplicaRead, fault.Behavior{Mode: fault.ModePanic, Count: 1}); err != nil {
		t.Fatal(err)
	}
	if n := mustQuery(t, ada, "SELECT x FROM t"); n != 1 {
		t.Fatalf("rows under injected read panic = %d, want 1", n)
	}

	// Apply failures trip the breaker; with the whole fleet tripped every
	// read silently lands on the primary.
	fault.Reset()
	if err := fault.Arm(fault.ReplicaApply, fault.Behavior{Mode: fault.ModeError, Count: 1 << 20}); err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Query(context.Background(), "INSERT INTO t VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !p.Replicas.AllTripped() && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if !p.Replicas.AllTripped() {
		t.Fatal("replica never tripped under persistent apply failure")
	}
	if n := mustQuery(t, ada, "SELECT x FROM t"); n != 2 {
		t.Fatalf("rows with fleet tripped = %d, want 2", n)
	}
}

// TestReadYourWritesConcurrent: under concurrent writes and routed
// reads, a writer always observes its own committed rows — the pin
// forces reads to the primary until a replica has applied past the
// writer's last commit. Run with -race; the reader exercises the routed
// path while the writer mutates.
func TestReadYourWritesConcurrent(t *testing.T) {
	defer fault.Reset()
	p, _ := newPlatform(t)
	ada := designer(t, p)
	if _, err := ada.Query(context.Background(), "CREATE TABLE rw (x INT)"); err != nil {
		t.Fatal(err)
	}
	attachReplicas(t, p, 2, 1024)
	// Slow every apply a little so replicas genuinely lag the writer and
	// the pin (not luck) is what preserves read-your-writes.
	if err := fault.Arm(fault.ReplicaStall, fault.Behavior{Mode: fault.ModeDelay, Delay: time.Millisecond, Count: 1 << 20}); err != nil {
		t.Fatal(err)
	}

	const writes = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		// An independent viewer reads concurrently: results may be stale
		// (no pin — vic never wrote) but must never error.
		defer wg.Done()
		vic := viewer(t, p)
		for {
			select {
			case <-stop:
				return
			default:
			}
			res, err := vic.Query(context.Background(), "SELECT x FROM rw")
			if err != nil {
				t.Errorf("concurrent viewer read: %v", err)
				return
			}
			if len(res.Rows) > writes {
				t.Errorf("viewer saw %d rows, more than ever written", len(res.Rows))
				return
			}
		}
	}()
	for i := 0; i < writes; i++ {
		if _, err := ada.Query(context.Background(), fmt.Sprintf("INSERT INTO rw VALUES (%d)", i)); err != nil {
			t.Fatal(err)
		}
		res, err := ada.Query(context.Background(), "SELECT x FROM rw")
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Rows) != i+1 {
			t.Fatalf("writer saw %d rows after %d writes (read-your-writes broken)", len(res.Rows), i+1)
		}
	}
	close(stop)
	wg.Wait()
}

// TestRoutedReadsRunOnTheReplica: an unpinned reader's routed SELECT —
// ad hoc or a data set, cold or cached — executes on the replica's
// engine. With the replica stalled behind another user's write, the
// reader gets the replica's pre-write answer and the replica read
// counter advances.
func TestRoutedReadsRunOnTheReplica(t *testing.T) {
	defer fault.Reset()
	ctx := context.Background()
	p, _ := newPlatform(t)
	ada, vic := designer(t, p), viewer(t, p)
	for _, q := range []string{"CREATE TABLE kpi (v INT)", "INSERT INTO kpi VALUES (1)"} {
		if _, err := ada.Query(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	if err := ada.CreateDataSet(ctx, "kpis", "", "SELECT v FROM kpi ORDER BY v", ""); err != nil {
		t.Fatal(err)
	}
	set := attachReplicas(t, p, 1, 1024)

	// Every frame now waits a second before it applies, so the replica
	// stays behind ada's write for the reads below; the wide lag bound
	// keeps it eligible.
	if err := fault.Arm(fault.ReplicaStall, fault.Behavior{Mode: fault.ModeDelay, Delay: time.Second}); err != nil {
		t.Fatal(err)
	}
	if _, err := ada.Query(ctx, "INSERT INTO kpi VALUES (2)"); err != nil {
		t.Fatal(err)
	}
	reads := []struct {
		name string
		run  func() (*sql.Result, error)
	}{
		{"query", func() (*sql.Result, error) { return vic.Query(ctx, "SELECT v FROM kpi") }},
		{"data set", func() (*sql.Result, error) { return vic.RunDataSet(ctx, "kpis") }},
	}
	for _, read := range reads {
		for _, pass := range []string{"cold", "cached"} {
			before := mReadsReplica.Value()
			res, err := read.run()
			if err != nil {
				t.Fatalf("%s (%s): %v", read.name, pass, err)
			}
			if len(res.Rows) != 1 {
				t.Errorf("%s (%s): %d rows, want the stalled replica's 1 (the primary answered)", read.name, pass, len(res.Rows))
			}
			if mReadsReplica.Value() != before+1 {
				t.Errorf("%s (%s): replica read counter did not advance", read.name, pass)
			}
		}
	}

	fault.Reset()
	if !set.CatchUp(5 * time.Second) {
		t.Fatal("replica never caught up after the stall")
	}
	for _, read := range reads {
		if res, err := read.run(); err != nil || len(res.Rows) != 2 {
			t.Errorf("%s after catch-up: %v, %v; want 2 rows", read.name, res, err)
		}
	}
}
