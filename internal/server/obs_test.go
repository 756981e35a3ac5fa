package server

import (
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/odbis/odbis/internal/obs"
)

// fetchMetricsText scrapes the unauthenticated Prometheus endpoint.
func fetchMetricsText(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// TestMetricsCoverAllLayers drives one real request mix through the HTTP
// façade and asserts the Prometheus exposition carries metric families
// from every instrumented layer: server, services/tenant, sql, storage.
func TestMetricsCoverAllLayers(t *testing.T) {
	obs.Reset()
	ts := testServer(t)
	token := setupTenantWithUser(t, ts)
	for _, q := range []string{
		"CREATE TABLE obs_t (a INT, b TEXT)",
		"INSERT INTO obs_t VALUES (1, 'x')",
		"SELECT * FROM obs_t",
		"SELECT * FROM obs_t", // repeat: the second run is a plan-cache hit
	} {
		status, _, raw := call(t, ts, token, "POST", "/api/query", map[string]any{"sql": q})
		if status != http.StatusOK {
			t.Fatalf("query %q: %d %s", q, status, raw)
		}
	}
	text := fetchMetricsText(t, ts.URL)
	for _, want := range []string{
		// server layer
		`odbis_http_requests_total{class="2xx"}`,
		"odbis_http_request_seconds_bucket",
		"odbis_http_in_flight",
		// tenant telemetry (fed via services/tenant metering)
		`odbis_tenant_requests_total{tenant="acme"}`,
		`odbis_tenant_api_calls_total{tenant="acme"}`,
		`odbis_tenant_rows_scanned_total{tenant="acme"}`,
		// sql layer
		"odbis_sql_statements_total",
		"odbis_sql_rows_scanned_total",
		"odbis_sql_plan_cache_hits_total",
		"odbis_sql_plan_cache_misses_total",
		// storage layer
		"odbis_wal_appends_total",
		"odbis_wal_bytes_written_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// TestTraceSpansEndToEnd runs one authenticated query and asserts the
// recorded trace carries the full layer chain: the server root span, the
// services span, the sql executor span and a storage transaction span,
// attributed to the calling tenant.
func TestTraceSpansEndToEnd(t *testing.T) {
	obs.Reset()
	ts := testServer(t)
	token := setupTenantWithUser(t, ts)
	status, _, raw := call(t, ts, token, "POST", "/api/query",
		map[string]any{"sql": "CREATE TABLE trace_t (a INT)"})
	if status != http.StatusOK {
		t.Fatalf("query: %d %s", status, raw)
	}
	var got *obs.TraceRecord
	for _, tr := range obs.Traces(0) {
		if tr.Spans[0].Name == "POST /api/query" && tr.Tenant == "acme" {
			got = &tr
			break
		}
	}
	if got == nil {
		t.Fatalf("no trace for POST /api/query with tenant acme in %d traces", len(obs.Traces(0)))
	}
	names := map[string]bool{}
	for _, sp := range got.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"POST /api/query", "services.query", "sql.exec", "storage.update"} {
		if !names[want] {
			t.Errorf("trace missing span %q (got %v)", want, names)
		}
	}
	// The layer chain must nest: every non-root span has a live parent.
	for i, sp := range got.Spans {
		if i == 0 {
			if sp.Parent != -1 {
				t.Errorf("root span parent = %d", sp.Parent)
			}
			continue
		}
		if sp.Parent < 0 || sp.Parent >= len(got.Spans) {
			t.Errorf("span %q has out-of-range parent %d", sp.Name, sp.Parent)
		}
	}
}

// TestObsAdminEndpoints checks the admin-only JSON views: metrics
// snapshot, traces, dead letters — and that a non-admin tenant user is
// refused.
func TestObsAdminEndpoints(t *testing.T) {
	ts := testServer(t)
	token := setupTenantWithUser(t, ts)
	admin := login(t, ts, "root", "toor")

	status, body, raw := call(t, ts, admin, "GET", "/api/admin/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("admin metrics: %d %s", status, raw)
	}
	if _, ok := body["counters"]; !ok {
		t.Errorf("metrics snapshot missing counters: %s", raw)
	}

	status, body, raw = call(t, ts, admin, "GET", "/api/admin/traces?n=5", nil)
	if status != http.StatusOK {
		t.Fatalf("admin traces: %d %s", status, raw)
	}
	if _, ok := body["traces"]; !ok {
		t.Errorf("traces response missing traces key: %s", raw)
	}
	status, _, _ = call(t, ts, admin, "GET", "/api/admin/traces?n=bogus", nil)
	if status != http.StatusBadRequest {
		t.Errorf("bad n = %d, want 400", status)
	}

	status, body, raw = call(t, ts, admin, "GET", "/api/admin/deadletters", nil)
	if status != http.StatusOK {
		t.Fatalf("admin deadletters: %d %s", status, raw)
	}
	if _, ok := body["deadLetters"]; !ok {
		t.Errorf("deadletters response missing key: %s", raw)
	}

	for _, path := range []string{"/api/admin/metrics", "/api/admin/traces", "/api/admin/deadletters"} {
		if status, _, _ := call(t, ts, token, "GET", path, nil); status != http.StatusForbidden {
			t.Errorf("non-admin %s = %d, want 403", path, status)
		}
	}
}

// TestUsageAgreesWithObsCounters replays a request mix and checks the
// billing path: the usage rows the admin endpoint reports must equal the
// live per-tenant obs counters the same requests produced.
func TestUsageAgreesWithObsCounters(t *testing.T) {
	obs.Reset()
	ts := testServer(t)
	token := setupTenantWithUser(t, ts)
	queries := []string{
		"CREATE TABLE usage_t (a INT)",
		"INSERT INTO usage_t VALUES (1)",
		"INSERT INTO usage_t VALUES (2)",
		"SELECT * FROM usage_t",
		"SELECT * FROM usage_t",
	}
	for _, q := range queries {
		status, _, raw := call(t, ts, token, "POST", "/api/query", map[string]any{"sql": q})
		if status != http.StatusOK {
			t.Fatalf("query %q: %d %s", q, status, raw)
		}
	}
	admin := login(t, ts, "root", "toor")
	status, body, raw := call(t, ts, admin, "GET", "/api/admin/tenants/acme/usage", nil)
	if status != http.StatusOK {
		t.Fatalf("usage: %d %s", status, raw)
	}
	for _, metric := range []string{obs.TenantAPICalls, obs.TenantQueries} {
		fromObs := obs.TenantTotal("acme", metric)
		if fromObs == 0 {
			t.Fatalf("obs counter %s is zero after replay", metric)
		}
		billed, ok := body[metric].(float64)
		if !ok {
			t.Fatalf("usage missing %s: %s", metric, raw)
		}
		if int64(billed) != fromObs {
			t.Errorf("usage %s = %d, obs counter = %d; billing must derive from telemetry",
				metric, int64(billed), fromObs)
		}
	}
}

// TestMetricsExemptFromAdmission saturates a 1-slot server and checks
// the scrape endpoint still answers while API requests are shed, and
// that the shed counter records the rejection.
func TestMetricsExemptFromAdmission(t *testing.T) {
	obs.Reset()
	ts, _ := testServerOpts(t, Options{MaxInFlight: 1})
	// Occupy the only admission slot with a login whose body stalls: the
	// handler blocks reading the request body until the pipe closes. The
	// polling calls below take the slot too, so the login itself may be
	// shed when it arrives; it then retries with a fresh stalled body.
	var mu sync.Mutex
	var stall *io.PipeWriter
	// The login gets its own connection: sharing the default transport's
	// pool with the polling loop below can starve it of one for seconds.
	stallClient := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	released := false
	done := make(chan struct{})
	// Cleanups run last-in first-out, so this one releases the stalled
	// login before the server's own cleanup waits for its connections —
	// also when an assertion below ends the test early.
	t.Cleanup(func() {
		mu.Lock()
		released = true
		if stall != nil {
			stall.Close()
		}
		mu.Unlock()
		<-done
	})
	go func() {
		defer close(done)
		for {
			pr, pw := io.Pipe()
			mu.Lock()
			if released {
				mu.Unlock()
				return
			}
			stall = pw
			mu.Unlock()
			req, err := http.NewRequest("POST", ts.URL+"/api/login", pr)
			if err != nil {
				return
			}
			// A declared length sends the headers at once instead of
			// after the transport's empty-body probe.
			req.ContentLength = 64
			resp, err := stallClient.Do(req)
			pw.Close()
			if err != nil {
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusServiceUnavailable {
				return
			}
		}
	}()
	// Once the slot is held, unauthenticated API calls shed with 503.
	// The login goroutine may take a while to be scheduled on a loaded
	// host, so poll against a deadline rather than a try count.
	shed := false
	for deadline := time.Now().Add(5 * time.Second); !shed && time.Now().Before(deadline); {
		status, _, _ := call(t, ts, "", "GET", "/api/whoami", nil)
		shed = status == http.StatusServiceUnavailable
	}
	if !shed {
		t.Fatal("never saw a 503 with MaxInFlight=1 and a held slot")
	}
	// The scrape must answer while the platform is saturated, and must
	// already show the shed we just caused.
	text := fetchMetricsText(t, ts.URL)
	if !strings.Contains(text, "odbis_http_shed_total") {
		t.Error("/metrics missing odbis_http_shed_total after a shed")
	}
}
