package main

import (
	"context"
	"testing"
	"time"
)

// TestLoopRunsEveryDrawnStatement drives the ingest stream through a
// self-hosted platform in many short closed-loop runs, as the warm-up
// and the measured run share one stream. A statement drawn but not sent
// would leave a gap that a later purge reports as a wrong count.
func TestLoopRunsEveryDrawnStatement(t *testing.T) {
	const n = 2 * purgeEvery
	rows := genTable(9, n)
	ctx := context.Background()
	h, err := openHost(ctx, t.TempDir(), rows, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	gens := []generator{ingestStream(9, 0, rows)}
	total := 0
	for total < (n/purgeEvery+2)*(purgeEvery+1) {
		r := runLoop(ctx, h.client, gens, 20*time.Millisecond)
		if r.failed+r.wrong > 0 {
			t.Fatalf("after %d statements: %d failed, %d wrong: %v", total, r.failed, r.wrong, r.firstErr)
		}
		if len(r.lats) != r.attempted || r.halves[0]+r.halves[1] != r.attempted {
			t.Fatalf("run counted %d statements, %d latencies, halves %v", r.attempted, len(r.lats), r.halves)
		}
		total += r.attempted
	}
	got, err := h.sess.Catalog.RowCount(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got < n || got > n+purgeEvery {
		t.Fatalf("table has %d rows, want [%d, %d]", got, n, n+purgeEvery)
	}
}
