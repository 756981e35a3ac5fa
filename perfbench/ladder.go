package main

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

// The traced run times the same generated statements at each layer's
// public entry point, client → services → tenant → sql → storage, from
// the benchmark's own code, so the program carries no extra
// instrumentation. Rungs run on one goroutine after the closed loop has
// stopped, so each time is one uncontended call.

// ladderIDBase starts the ids of rows the ingest ladder inserts, far
// from the ids the ingest stream uses.
const ladderIDBase = int64(1) << 40

// scanBatchRows is the batch size the SQL executor scans with.
const scanBatchRows = 256

// layerRungs names every rung; a workload's ladder runs those where its
// statements do work and reports 0 for the rest.
var layerRungs = []string{
	"client.query_us", "services.query_us", "tenant.query_us", "sql.query_us",
	"sql.parse_us", "storage.scan_us", "storage.commit_us", "tenant.rowcount_us",
}

// rung is one layer's entry point. call runs s there and checks the
// answer; inserted reports whether it left a row that must be removed.
type rung struct {
	name     string
	call     func(ctx context.Context, s *stmt) error
	inserted bool
}

// ladderPlan is what one workload's ladder times.
type ladderPlan struct {
	samples int
	next    generator
	rungs   []rung
}

func (h *host) ladderPlan(w workload, seed int64, rows []row) (ladderPlan, error) {
	tctx := func(ctx context.Context) context.Context { return tenant.NewContext(ctx, tenantID) }
	db := sql.NewDB(h.engine)
	phys := func(s *stmt) string { return strings.Replace(s.sql, tableName, h.phys, 1) }
	rungs := []rung{
		{name: "client.query_us", call: func(ctx context.Context, s *stmt) error {
			res, err := h.client.Query(ctx, s.sql, s.args...)
			if err != nil {
				return err
			}
			return s.check(res.Rows, res.Affected)
		}},
		{name: "services.query_us", call: func(ctx context.Context, s *stmt) error {
			return checked(s)(h.sess.Query(ctx, s.sql, s.args...))
		}},
		{name: "tenant.query_us", call: func(ctx context.Context, s *stmt) error {
			return checked(s)(h.sess.Catalog.Query(tctx(ctx), s.sql, s.args...))
		}},
		{name: "sql.query_us", call: func(ctx context.Context, s *stmt) error {
			return checked(s)(db.QueryContext(tctx(ctx), phys(s), s.args...))
		}},
	}
	switch w.name {
	case "dashboard":
		rungs = append(rungs, rung{name: "storage.scan_us", call: func(ctx context.Context, _ *stmt) error {
			return h.engine.ViewCtx(ctx, func(tx *storage.Tx) error {
				return tx.ScanBatches(h.phys, scanBatchRows, func(*storage.Batch) error { return nil })
			})
		}})
		return ladderPlan{samples: 240, next: w.stream(seed, w.clients, rows), rungs: rungs}, nil
	case "lookup":
		return ladderPlan{samples: 20000, next: w.stream(seed, w.clients, rows), rungs: rungs}, nil
	case "ingest":
		for i := range rungs {
			rungs[i].inserted = true
		}
		want, err := h.sess.Catalog.RowCount(tctx(context.Background()))
		if err != nil {
			return ladderPlan{}, err
		}
		rungs = append(rungs,
			rung{name: "sql.parse_us", call: func(_ context.Context, s *stmt) error {
				_, err := sql.Parse(s.sql)
				return err
			}},
			rung{name: "storage.commit_us", inserted: true, call: func(ctx context.Context, s *stmt) error {
				return h.engine.UpdateCtx(ctx, func(tx *storage.Tx) error {
					_, err := tx.Insert(h.phys, storage.Row(s.args))
					return err
				})
			}},
			rung{name: "tenant.rowcount_us", call: func(ctx context.Context, _ *stmt) error {
				n, err := h.sess.Catalog.RowCount(tctx(ctx))
				if err == nil && n != want {
					err = fmt.Errorf("tenant row count %d, want %d", n, want)
				}
				return err
			}},
		)
		// The ladder times inserts only: a purge would have to be
		// undone by re-inserting the rows it removed.
		rng := streamRand(seed, w.clients)
		id := ladderIDBase
		next := func() stmt {
			r := genRow(rng, id)
			id++
			return stmt{sql: insertSQL, args: r.values(), write: true, affected: 1}
		}
		return ladderPlan{samples: 1000, next: next, rungs: rungs}, nil
	}
	return ladderPlan{}, fmt.Errorf("no ladder for workload %q", w.name)
}

// checked adapts a (*sql.Result, error) return into an answer check.
func checked(s *stmt) func(*sql.Result, error) error {
	return func(res *sql.Result, err error) error {
		if err != nil {
			return err
		}
		return s.check(res.Rows, res.Affected)
	}
}

// runLadder times every rung on the plan's statements and returns each
// rung's median per call in microseconds. Within a statement kind the
// median is taken; across kinds the medians are weighted by how often
// each kind was drawn. A row a rung inserts is deleted, untimed, before
// the next rung runs, so the tenant's table ends as it began.
func (h *host) runLadder(ctx context.Context, p ladderPlan, kinds int) (map[string]float64, error) {
	idx, err := h.engine.Indexes(h.phys)
	if err != nil || len(idx) != 1 {
		return nil, fmt.Errorf("ladder: table index: %v (%d indexes)", err, len(idx))
	}
	// Rungs take turns on blocks of statements: a block keeps one path's
	// goroutines and caches warm, as a stream of requests does, and the
	// turns spread every rung over the same stretch of time. The first
	// block only warms up.
	const block = 10
	times := make([][][]time.Duration, len(p.rungs)) // [rung][kind]
	for i := range times {
		times[i] = make([][]time.Duration, kinds)
	}
	drawn := make([]int, kinds)
	stmts := make([]stmt, block)
	for n := -block; n < p.samples; n += block {
		for j := range stmts {
			stmts[j] = p.next()
			if n >= 0 {
				drawn[stmts[j].kind]++
			}
		}
		for i, r := range p.rungs {
			for j := range stmts {
				s := &stmts[j]
				t0 := time.Now()
				err := r.call(ctx, s)
				d := time.Since(t0)
				if err != nil {
					return nil, fmt.Errorf("ladder %s: %w", r.name, err)
				}
				if r.inserted {
					if err := h.deleteRow(ctx, idx[0].Name, s.args[0]); err != nil {
						return nil, fmt.Errorf("ladder %s: %w", r.name, err)
					}
				}
				if n >= 0 {
					times[i][s.kind] = append(times[i][s.kind], d)
				}
			}
		}
	}
	out := make(map[string]float64, len(layerRungs))
	for _, name := range layerRungs {
		out[name] = 0
	}
	for i, r := range p.rungs {
		var v float64
		for k, ts := range times[i] {
			if len(ts) == 0 {
				continue
			}
			sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
			v += micros(percentile(ts, 50)) * float64(drawn[k]) / float64(p.samples)
		}
		out[r.name] = v
	}
	return out, nil
}

// deleteRow removes the one row whose id is id, through the index.
func (h *host) deleteRow(ctx context.Context, index string, id storage.Value) error {
	return h.engine.UpdateCtx(ctx, func(tx *storage.Tx) error {
		var rids []storage.RID
		err := tx.LookupEqual(h.phys, index, []storage.Value{id}, func(rid storage.RID, _ storage.Row) bool {
			rids = append(rids, rid)
			return true
		})
		if err != nil {
			return err
		}
		if len(rids) != 1 {
			return fmt.Errorf("row %v: %d copies, want 1", id, len(rids))
		}
		return tx.DeleteRID(h.phys, rids[0])
	})
}

// selfTimes derives each layer's self time from adjacent rungs.
func selfTimes(m map[string]float64) {
	m["front_door.self_us"] = m["client.query_us"] - m["services.query_us"]
	m["services.self_us"] = m["services.query_us"] - m["tenant.query_us"]
	m["tenant.self_us"] = m["tenant.query_us"] - m["sql.query_us"]
	m["sql.exec_self_us"] = m["sql.query_us"] - m["sql.parse_us"] - m["storage.scan_us"]
}
