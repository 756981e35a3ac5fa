package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/odbis/odbis/client"
)

// tally is what closed-loop clients saw.
type tally struct {
	lats      []time.Duration
	attempted int
	writes    int
	failed    int // errors and refusals
	wrong     int // answers that did not match the oracle
	halves    [2]int
	firstErr  error
}

func (t *tally) merge(o tally) {
	t.lats = append(t.lats, o.lats...)
	t.attempted += o.attempted
	t.writes += o.writes
	t.failed += o.failed
	t.wrong += o.wrong
	t.halves[0] += o.halves[0]
	t.halves[1] += o.halves[1]
	if t.firstErr == nil {
		t.firstErr = o.firstErr
	}
}

// halvesDiffer reports the relative gap between the statements
// completed in the first and the second half, as a share of the larger.
func (t *tally) halvesDiffer() float64 {
	a, b := float64(t.halves[0]), float64(t.halves[1])
	if a == 0 && b == 0 {
		return 0
	}
	return math.Abs(a-b) / math.Max(a, b)
}

// runResult is one closed-loop run.
type runResult struct {
	tally   // lats sorted
	elapsed time.Duration
	// heapGrowth is the live heap's growth over the run in bytes, when
	// measured.
	heapGrowth int64
}

// runLoop drives one closed-loop client per generator through c until
// d has passed: each client sends its next statement only after the
// previous answer has arrived and been checked. Only the Query call is
// timed.
func runLoop(ctx context.Context, c *client.Client, gens []generator, d time.Duration) runResult {
	start := time.Now()
	half, deadline := start.Add(d/2), start.Add(d)
	tallies := make([]tally, len(gens))
	var wg sync.WaitGroup
	for i := range gens {
		wg.Add(1)
		go func(t *tally, next generator) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				// Draw only a statement that will be sent: the ingest
				// generator's expected answers assume each one runs.
				s := next()
				t0 := time.Now()
				res, err := c.Query(ctx, s.sql, s.args...)
				t1 := time.Now()
				t.lats = append(t.lats, t1.Sub(t0))
				t.attempted++
				if s.write {
					t.writes++
				}
				if t1.Before(half) {
					t.halves[0]++
				} else {
					t.halves[1]++
				}
				if err == nil {
					if err = s.check(res.Rows, res.Affected); err != nil {
						t.wrong++
					}
				} else {
					t.failed++
				}
				if err != nil && t.firstErr == nil {
					t.firstErr = err
				}
			}
		}(&tallies[i], gens[i])
	}
	wg.Wait()
	r := runResult{elapsed: time.Since(start)}
	for _, t := range tallies {
		r.merge(t)
	}
	sort.Slice(r.lats, func(i, j int) bool { return r.lats[i] < r.lats[j] })
	return r
}

// percentile returns the p-th percentile of sorted by the nearest-rank
// rule: the smallest value with at least p% of the samples at or below
// it.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted)) / 100))
	return sorted[max(rank, 1)-1]
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
