// Command perfbench is the repository benchmark. It self-hosts the
// platform in its own process with the binary front door on loopback,
// drives one named closed-loop workload through the public client
// package, checks every answer against an oracle, and prints the
// metrics BENCHMARK.json declares:
//
//	bash perfbench/run.sh --workload dashboard --seed 1 --seconds 10 --trace 0
//
// Run it from the repository root. With --trace 0 it measures five
// fresh platforms in turn and prints the end-to-end metrics; with
// --trace 1 it runs the same closed loop on one platform for its counts
// and then times the workload's statements at each layer's entry point
// (see ladder.go). The last line of standard output is the result
// object; the line before it records the run's context.
//
// Workloads (all over one 20,000-row table with an index on id, a
// tenant on the standard plan, and a durable engine):
//
//   - dashboard: 2 clients issue the four dashboard aggregates. Nearly
//     all time is SQL execution and the storage scan; no writes.
//   - lookup: 2 clients issue indexed point SELECTs. The front door and
//     services dominate; no scan runs.
//   - ingest: 1 loader issues single-row INSERTs with a purge every 200,
//     holding the table between 20,000 and 20,200 rows. The quota check
//     dominates. It runs apart from the readers because a writer beside
//     a reader swings both.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/tenant"
)

const (
	specFile = "BENCHMARK.json"
	workDir  = ".bench_build"
	// setups is how many fresh platforms a --trace 0 run measures, one
	// after another, each for an equal share of the run.
	setups = 5
	warmup = time.Second
)

// metricSpec is one metric BENCHMARK.json declares.
type metricSpec struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound"`
}

type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// bound returns the declared bound of an end-to-end metric.
func (s spec) bound(name string) float64 {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m.Bound
		}
	}
	return 0
}

func readSpec(path string) (spec, error) {
	var s spec
	b, err := os.ReadFile(path)
	if err != nil {
		return s, err
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return s, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: dashboard, lookup or ingest")
		seed    = flag.Int64("seed", 1, "seed for the table and the statement streams")
		seconds = flag.Int("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments: --workload %q --seconds %d --trace %d\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	if err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(w workload, seed int64, d time.Duration, traced bool) error {
	sp, err := readSpec(specFile)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	ctx := context.Background()
	rows := genTable(seed, tableRows)
	var (
		declared []metricSpec
		values   map[string]float64
		samples  []sample
	)
	if traced {
		declared = sp.PerLayer
		values, samples, err = runTraced(ctx, w, seed, rows, d)
	} else {
		declared = sp.EndToEnd
		values, samples, err = runMeasured(ctx, w, seed, rows, d)
	}
	if err != nil {
		return err
	}

	var total tally
	inBand := true
	for _, s := range samples {
		total.merge(s.run.tally)
		inBand = s.inBand(w) && inBand
	}
	total.lats = nil
	if total.attempted == 0 {
		return fmt.Errorf("no statement completed in %v", d)
	}
	values["success_rate"] = 1 - float64(total.failed+total.wrong)/float64(total.attempted)
	res := result{
		Correct:   total.wrong == 0 && inBand,
		Attempted: total.attempted,
		Failed:    total.failed + total.wrong,
		Metrics:   map[string]metricValue{},
	}
	if total.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: first failure: %v\n", total.firstErr)
	}
	// Stationarity: the two halves of the measured time complete about
	// as many statements as each other.
	if gap := total.halvesDiffer(); gap > sp.bound("throughput_rps") {
		fmt.Fprintf(os.Stderr, "perfbench: not stationary: run halves differ by %.1f%% (%d vs %d statements)\n",
			100*gap, total.halves[0], total.halves[1])
		res.Correct = false
	}
	printContext(w, seed, d, traced, samples)
	for _, m := range declared {
		v, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("%s declares %s, which this run does not measure", specFile, m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// sample is one fresh platform measured for one stretch of the run.
type sample struct {
	setup time.Duration
	// heap is the live heap after the warm-up. It is read before the
	// measured loop because the platform retains memory per statement
	// (heap.growth_bytes_per_stmt in the traced run), so a reading after
	// the loop would scale with throughput.
	heap          uint64
	run           runResult
	before, after obs.MetricsSnapshot
	rowsAt        [2]int // tenant rows before and after the loop
}

// inBand reports whether the table stayed in the workload's band.
func (s sample) inBand(w workload) bool {
	for _, n := range s.rowsAt {
		if n < tableRows || n > tableRows+w.growth {
			fmt.Fprintf(os.Stderr, "perfbench: not stationary: table has %d rows, band is [%d, %d]\n",
				n, tableRows, tableRows+w.growth)
			return false
		}
	}
	return true
}

// measureSample sets up a fresh platform, warms it up and runs the
// closed loop on it for d. The caller closes the host.
func measureSample(ctx context.Context, w workload, seed int64, rows []row, d time.Duration, traced bool) (*host, sample, error) {
	var s sample
	// Each set-up starts from a collected heap, so none pays for the
	// garbage of the one before.
	runtime.GC()
	t0 := time.Now()
	h, err := openHost(ctx, workDir, rows, w.clients)
	if err != nil {
		return nil, s, err
	}
	s.setup = time.Since(t0)
	fail := func(err error) (*host, sample, error) {
		h.close()
		return nil, s, err
	}
	gens := make([]generator, w.clients)
	for c := range gens {
		gens[c] = w.stream(seed, c, rows)
	}
	if r := runLoop(ctx, h.client, gens, warmup); r.failed+r.wrong > 0 {
		return fail(fmt.Errorf("warm-up: %d of %d statements failed or were wrong: %v", r.failed+r.wrong, r.attempted, r.firstErr))
	}
	s.heap = liveHeap()
	tctx := tenant.NewContext(ctx, tenantID)
	if s.rowsAt[0], err = h.sess.Catalog.RowCount(tctx); err != nil {
		return fail(err)
	}
	if traced {
		// The front door adds a session's byte counts to its counters
		// when the session ends, so the counted loop gets connections of
		// its own, closed before the second snapshot.
		if s.before, s.after, err = countedLoop(ctx, h, gens, d, &s.run); err != nil {
			return fail(err)
		}
	} else {
		s.run = runLoop(ctx, h.client, gens, d)
	}
	if s.rowsAt[1], err = h.sess.Catalog.RowCount(tctx); err != nil {
		return fail(err)
	}
	return h, s, nil
}

// runMeasured splits the run among `setups` fresh platforms, one after
// another, and reports the second-best of their figures. On a shared
// host, other tenants' load slows whole stretches of a run, for seconds
// to minutes at a time; the second-best ignores up to setups-2 such
// stretches without resting on one lucky platform.
func runMeasured(ctx context.Context, w workload, seed int64, rows []row, d time.Duration) (map[string]float64, []sample, error) {
	var samples []sample
	var setup, tput, p50, p95, heap []float64
	for i := 0; i < setups; i++ {
		h, s, err := measureSample(ctx, w, seed, rows, d/setups, false)
		if err != nil {
			return nil, nil, err
		}
		if err := h.close(); err != nil {
			return nil, nil, err
		}
		setup = append(setup, s.setup.Seconds())
		tput = append(tput, float64(s.run.attempted)/s.run.elapsed.Seconds())
		p50 = append(p50, micros(percentile(s.run.lats, 50)))
		p95 = append(p95, micros(percentile(s.run.lats, 95)))
		heap = append(heap, float64(s.heap)/(1<<20))
		s.run.lats = nil
		samples = append(samples, s)
	}
	return map[string]float64{
		"setup_s":        secondBest(setup, false),
		"throughput_rps": secondBest(tput, true),
		"p50_us":         secondBest(p50, false),
		"p95_us":         secondBest(p95, false),
		"live_heap_mb":   secondBest(heap, false),
	}, samples, nil
}

// runTraced runs the closed loop on one platform for its counts, then
// times the workload's statements at each layer (ladder.go).
func runTraced(ctx context.Context, w workload, seed int64, rows []row, d time.Duration) (values map[string]float64, samples []sample, err error) {
	h, s, err := measureSample(ctx, w, seed, rows, d, true)
	if err != nil {
		return nil, nil, err
	}
	defer func() {
		if cerr := h.close(); err == nil {
			err = cerr
		}
	}()
	r := s.run
	delta := func(counter string) float64 { return float64(s.after.Counters[counter] - s.before.Counters[counter]) }
	perStmt := func(v float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return v / float64(n)
	}
	hits, misses := delta("odbis_sql_plan_cache_hits_total"), delta("odbis_sql_plan_cache_misses_total")
	values = map[string]float64{
		"sql.rows_scanned_per_stmt":     perStmt(delta("odbis_sql_rows_scanned_total"), r.attempted),
		"sql.plan_cache_hit_ratio":      perStmt(hits, int(hits+misses)),
		"storage.wal_appends_per_write": perStmt(delta("odbis_wal_appends_total"), r.writes),
		"storage.wal_bytes_per_write":   perStmt(delta("odbis_wal_bytes_written_total"), r.writes),
		"proto.bytes_out_per_stmt":      perStmt(delta("odbis_proto_bytes_out_total"), r.attempted),
		"proto.retries":                 delta("odbis_proto_retry_total"),
		"heap.growth_bytes_per_stmt":    perStmt(float64(r.heapGrowth), r.attempted),
	}
	plan, err := h.ladderPlan(w, seed, rows)
	if err != nil {
		return nil, nil, err
	}
	layers, err := h.runLadder(ctx, plan, len(w.kinds))
	if err != nil {
		return nil, nil, err
	}
	selfTimes(layers)
	for k, v := range layers {
		values[k] = v
	}
	n, err := h.sess.Catalog.RowCount(tenant.NewContext(ctx, tenantID))
	if err != nil {
		return nil, nil, err
	}
	if n != s.rowsAt[1] {
		return nil, nil, fmt.Errorf("traced run changed the tenant: %d rows before, %d after", s.rowsAt[1], n)
	}
	printSplit(values)
	return values, []sample{s}, nil
}

// countedLoop runs the closed loop on fresh connections and returns
// metric snapshots taken before they open and after the front door has
// ended their sessions.
func countedLoop(ctx context.Context, h *host, gens []generator, d time.Duration, r *runResult) (before, after obs.MetricsSnapshot, err error) {
	const open = "odbis_proto_sessions_open"
	before = obs.Snapshot()
	c, err := h.dial(len(gens))
	if err != nil {
		return before, after, err
	}
	heap0 := liveHeap()
	*r = runLoop(ctx, c, gens, d)
	r.lats = nil
	r.heapGrowth = int64(liveHeap()) - int64(heap0)
	c.Close()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		after = obs.Snapshot()
		if after.Gauges[open] == before.Gauges[open] {
			return before, after, nil
		}
		if time.Now().After(deadline) {
			return before, after, fmt.Errorf("front door kept %d sessions open", after.Gauges[open]-before.Gauges[open])
		}
	}
}

// liveHeap collects garbage and returns the bytes of live heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// secondBest returns the second-highest of vs when higher is better,
// else the second-lowest.
func secondBest(vs []float64, higherBetter bool) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if higherBetter {
		return s[len(s)-2]
	}
	return s[1]
}

// printContext records what a result depends on besides the code.
func printContext(w workload, seed int64, d time.Duration, traced bool, samples []sample) {
	type sampleJSON struct {
		SetupS     float64 `json:"setup_s"`
		Seconds    float64 `json:"seconds"`
		Statements int     `json:"statements"`
		Failed     int     `json:"failed"`
		Wrong      int     `json:"wrong"`
		Halves     [2]int  `json:"halves"`
		Rows       [2]int  `json:"table_rows_before_after"`
	}
	var ss []sampleJSON
	for _, s := range samples {
		ss = append(ss, sampleJSON{s.setup.Seconds(), s.run.elapsed.Seconds(), s.run.attempted,
			s.run.failed, s.run.wrong, s.run.halves, s.rowsAt})
	}
	b, _ := json.Marshal(map[string]any{"context": map[string]any{
		"workload":      w.name,
		"seed":          seed,
		"seconds":       d.Seconds(),
		"traced":        traced,
		"cpus":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"table_rows":    tableRows,
		"clients":       w.clients,
		"loop":          "closed",
		"plan":          tenantPlan,
		"flush_policy":  flushName,
		"warmup_s":      warmup.Seconds(),
		"latency_rule":  "nearest rank",
		"sum_tolerance": floatTol,
		"samples":       ss,
	}})
	fmt.Println(string(b))
}

// printSplit reports each layer's share of the client-side call, so a
// reader can see which layer dominates the workload.
func printSplit(m map[string]float64) {
	total := m["client.query_us"]
	if total <= 0 {
		return
	}
	dominant := ""
	for _, k := range []string{"front_door.self_us", "services.self_us", "tenant.self_us", "sql.exec_self_us", "sql.parse_us", "storage.scan_us"} {
		fmt.Printf("split: %-20s %10.1f us  %5.1f%% of client.query_us\n", k, m[k], 100*m[k]/total)
		if dominant == "" || m[k] > m[dominant] {
			dominant = k
		}
	}
	fmt.Printf("dominant layer: %s (%.1f%% of client.query_us)\n", dominant, 100*m[dominant]/total)
}
