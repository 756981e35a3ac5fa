// Package tenant implements ODBIS multi-tenancy: the paper's §2 model
// where "the physical backend hardware infrastructure is shared among
// many different customers but logically is unique for each customer"
// and "one database is used to store all customers' data".
//
// A Registry keeps tenant accounts, subscription plans and pay-as-you-go
// usage metering in the shared storage engine. Each tenant gets a
// Catalog: a logical namespace whose table names are rewritten onto
// prefixed physical tables in the shared engine, so tenants are isolated
// without per-tenant infrastructure (the economies-of-scale claim
// benchmarked as experiment E2).
package tenant

import (
	"context"
	"errors"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"time"

	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/storage/orm"
)

// Errors returned by the registry.
var (
	ErrNoTenant  = errors.New("tenant: no such tenant")
	ErrExists    = errors.New("tenant: already exists")
	ErrSuspended = errors.New("tenant: suspended")
	// ErrQuota is storage's row-cap sentinel: the plan's MaxRows is
	// enforced inside the writing transaction, so every ingress path
	// (SQL, ORM, ETL sinks, the wire) returns this same error.
	ErrQuota       = storage.ErrQuota
	ErrUnknownPlan = errors.New("tenant: unknown plan")
	ErrBadTenantID = errors.New("tenant: invalid tenant id")
)

// Plan is a subscription tier: quotas plus pay-as-you-go pricing.
type Plan struct {
	Name          string
	MaxTables     int // 0 = unlimited
	MaxRows       int // total rows across tenant tables, enforced by storage; 0 = unlimited
	MonthlyFee    float64
	PricePerQuery float64
	PricePer1kRow float64 // per 1000 rows loaded
}

// DefaultPlans mirror typical SaaS tiers; registries may define others.
var DefaultPlans = []Plan{
	{Name: "free", MaxTables: 5, MaxRows: 10000, MonthlyFee: 0, PricePerQuery: 0, PricePer1kRow: 0},
	{Name: "standard", MaxTables: 50, MaxRows: 1000000, MonthlyFee: 49, PricePerQuery: 0.001, PricePer1kRow: 0.01},
	{Name: "enterprise", MonthlyFee: 499, PricePerQuery: 0.0005, PricePer1kRow: 0.005},
}

// Info is a tenant account.
type Info struct {
	ID      string `orm:"id,pk"`
	Name    string
	Plan    string
	Active  bool
	Created time.Time
}

// usage is one metering counter: (tenant, metric, period) → value. Key is
// the composite "tenant|metric|period" so counters upsert atomically.
type usageRow struct {
	Key    string `orm:"key,pk"`
	Tenant string `orm:"tenant,index"`
	Metric string
	Period string // YYYY-MM
	Value  int64
}

// Metric names recorded by the registry. They alias the obs per-tenant
// telemetry names so the live counters at /metrics and the persisted
// billing rows always speak the same vocabulary.
const (
	MetricQueries    = obs.TenantQueries
	MetricRowsLoaded = obs.TenantRowsLoaded
	MetricAPICalls   = obs.TenantAPICalls
)

// tenantIDRe admits 1–32 lower-case alphanumerics in hyphen-separated
// runs. Forbidding "--" and a trailing "-" keeps physicalPrefix
// prefix-free: t_<id>__ can never begin another tenant's prefix.
var tenantIDRe = regexp.MustCompile(`^[a-z0-9]+(-[a-z0-9]+)*$`)

func validTenantID(id string) bool { return len(id) <= 32 && tenantIDRe.MatchString(id) }

// Registry manages tenants over one shared engine.
type Registry struct {
	engine  *storage.Engine
	tenants *orm.Mapper[Info]
	usage   *orm.Mapper[usageRow]
	plans   map[string]Plan
	now     func() time.Time
	recMu   sync.Mutex       // guards pending
	pending map[string]int64 // "tenant|metric" → delta not yet persisted
}

// NewRegistry opens a registry, creating its tables when missing and
// registering the default plans.
func NewRegistry(e *storage.Engine) (*Registry, error) {
	tm, err := orm.NewMapper[Info](e, "tenants")
	if err != nil {
		return nil, err
	}
	um, err := orm.NewMapper[usageRow](e, "tenant_usage")
	if err != nil {
		return nil, err
	}
	r := &Registry{engine: e, tenants: tm, usage: um, plans: map[string]Plan{}, now: time.Now}
	for _, p := range DefaultPlans {
		r.plans[p.Name] = p
	}
	if err := r.installQuotas(""); err != nil {
		return nil, err
	}
	return r, nil
}

// installQuotas hands the row cap of every tenant on plan (every plan
// when plan is empty) to storage, which enforces it on each insert.
func (r *Registry) installQuotas(plan string) error {
	all, err := r.tenants.All()
	if err != nil {
		return err
	}
	for _, info := range all {
		if p, ok := r.plans[info.Plan]; ok && (plan == "" || plan == info.Plan) {
			r.engine.SetRowQuota(physicalPrefix(info.ID), p.MaxRows)
		}
	}
	return nil
}

// Engine exposes the shared storage engine.
func (r *Registry) Engine() *storage.Engine { return r.engine }

// DefinePlan adds or replaces a plan.
func (r *Registry) DefinePlan(p Plan) error {
	if p.Name == "" {
		return fmt.Errorf("tenant: plan needs a name")
	}
	r.plans[p.Name] = p
	return r.installQuotas(p.Name)
}

// Plan returns a plan by name.
func (r *Registry) Plan(name string) (Plan, error) {
	p, ok := r.plans[name]
	if !ok {
		return Plan{}, fmt.Errorf("%w: %s", ErrUnknownPlan, name)
	}
	return p, nil
}

// Create provisions a tenant on a plan.
func (r *Registry) Create(id, name, plan string) (*Info, error) {
	if !validTenantID(id) {
		return nil, fmt.Errorf("%w: %q", ErrBadTenantID, id)
	}
	if _, ok := r.plans[plan]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownPlan, plan)
	}
	if _, ok, _ := r.tenants.Get(id); ok {
		return nil, fmt.Errorf("%w: %s", ErrExists, id)
	}
	info := Info{ID: id, Name: name, Plan: plan, Active: true, Created: r.now().UTC()}
	if err := r.tenants.Insert(&info); err != nil {
		return nil, err
	}
	r.engine.SetRowQuota(physicalPrefix(id), r.plans[plan].MaxRows)
	return &info, nil
}

// Get returns a tenant account.
func (r *Registry) Get(id string) (*Info, error) {
	info, ok, err := r.tenants.Get(id)
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoTenant, id)
	}
	return &info, nil
}

// List returns tenant ids sorted.
func (r *Registry) List() ([]string, error) {
	all, err := r.tenants.All()
	if err != nil {
		return nil, err
	}
	out := make([]string, len(all))
	for i, t := range all {
		out[i] = t.ID
	}
	sort.Strings(out)
	return out, nil
}

// Suspend blocks a tenant's catalogs.
func (r *Registry) Suspend(id string) error { return r.setActive(id, false) }

// Resume re-enables a tenant.
func (r *Registry) Resume(id string) error { return r.setActive(id, true) }

func (r *Registry) setActive(id string, active bool) error {
	info, err := r.Get(id)
	if err != nil {
		return err
	}
	info.Active = active
	return r.tenants.Save(info)
}

// SetPlan moves a tenant to another plan.
func (r *Registry) SetPlan(id, plan string) error {
	if _, ok := r.plans[plan]; !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPlan, plan)
	}
	info, err := r.Get(id)
	if err != nil {
		return err
	}
	info.Plan = plan
	if err := r.tenants.Save(info); err != nil {
		return err
	}
	r.engine.SetRowQuota(physicalPrefix(id), r.plans[plan].MaxRows)
	return nil
}

// Drop removes a tenant and every physical table in its namespace.
func (r *Registry) Drop(id string) error {
	if _, err := r.Get(id); err != nil {
		return err
	}
	prefix := physicalPrefix(id)
	for _, tbl := range r.engine.Tables() {
		if strings.HasPrefix(tbl, prefix) {
			if err := r.engine.DropTable(tbl); err != nil {
				return err
			}
		}
	}
	r.engine.SetRowQuota(prefix, 0)
	if _, err := r.usage.DeleteWhere("tenant", id); err != nil {
		return err
	}
	r.recMu.Lock()
	pendingPrefix := id + "|"
	for k := range r.pending {
		if strings.HasPrefix(k, pendingPrefix) {
			delete(r.pending, k)
		}
	}
	r.recMu.Unlock()
	_, err := r.tenants.Delete(id)
	return err
}

// --- metering ---

func (r *Registry) period() string { return r.now().UTC().Format("2006-01") }

// Record adds delta to a tenant metric: the live obs counter is bumped
// immediately (visible at /metrics without a storage round-trip) and
// the delta accumulates in memory until FlushUsage persists it. Earlier
// revisions wrote a usage row per bump; moving persistence off the
// query hot path is what lets metering ride inside the per-request
// budget.
func (r *Registry) Record(id, metric string, delta int64) {
	obs.AddTenantID(id, metric, delta)
	r.recMu.Lock()
	if r.pending == nil {
		r.pending = map[string]int64{}
	}
	r.pending[id+"|"+metric] += delta
	r.recMu.Unlock()
}

// FlushUsage folds pending metering deltas into the current period's
// usage rows. Usage and Invoice flush before reading, and the platform
// flushes on Close; deltas that fail to persist are merged back into
// pending rather than dropped.
func (r *Registry) FlushUsage() error {
	r.recMu.Lock()
	pending := r.pending
	r.pending = nil
	r.recMu.Unlock()
	if len(pending) == 0 {
		return nil
	}
	keys := make([]string, 0, len(pending))
	for k := range pending {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	period := r.period()
	for i, k := range keys {
		id, metric, _ := strings.Cut(k, "|")
		rowKey := k + "|" + period //odbis:ignore hotalloc -- the concat IS the storage key being built; one per flushed usage row
		row, ok, err := r.usage.Get(rowKey)
		if err == nil {
			if !ok {
				row = usageRow{Key: rowKey, Tenant: id, Metric: metric, Period: period}
			}
			row.Value += pending[k]
			err = r.usage.Save(&row)
		}
		if err != nil {
			r.recMu.Lock()
			if r.pending == nil {
				r.pending = map[string]int64{}
			}
			for _, rest := range keys[i:] {
				r.pending[rest] += pending[rest]
			}
			r.recMu.Unlock()
			return err
		}
	}
	return nil
}

// Usage returns the tenant's counters for the current period.
func (r *Registry) Usage(id string) (map[string]int64, error) {
	if _, err := r.Get(id); err != nil {
		return nil, err
	}
	if err := r.FlushUsage(); err != nil {
		return nil, err
	}
	rows, err := r.usage.Where("tenant", id)
	if err != nil {
		return nil, err
	}
	period := r.period()
	out := map[string]int64{}
	for _, row := range rows {
		if row.Period == period {
			out[row.Metric] += row.Value
		}
	}
	return out, nil
}

// InvoiceLine is one charge on an invoice.
type InvoiceLine struct {
	Item   string
	Qty    int64
	Amount float64
}

// Invoice is a pay-as-you-go bill for one period.
type Invoice struct {
	Tenant string
	Period string
	Plan   string
	Lines  []InvoiceLine
	Total  float64
}

// Invoice computes the current-period bill from the plan and usage.
func (r *Registry) Invoice(id string) (*Invoice, error) {
	info, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	plan, err := r.Plan(info.Plan)
	if err != nil {
		return nil, err
	}
	usage, err := r.Usage(id)
	if err != nil {
		return nil, err
	}
	inv := &Invoice{Tenant: id, Period: r.period(), Plan: plan.Name}
	add := func(item string, qty int64, amount float64) {
		inv.Lines = append(inv.Lines, InvoiceLine{Item: item, Qty: qty, Amount: amount})
		inv.Total += amount
	}
	add("subscription "+plan.Name, 1, plan.MonthlyFee)
	if q := usage[MetricQueries]; q > 0 && plan.PricePerQuery > 0 {
		add("queries", q, float64(q)*plan.PricePerQuery)
	}
	if rows := usage[MetricRowsLoaded]; rows > 0 && plan.PricePer1kRow > 0 {
		add("rows loaded (per 1k)", rows, float64(rows)/1000*plan.PricePer1kRow)
	}
	return inv, nil
}

// --- catalogs ---

// physicalPrefix is the tenant's namespace in the shared engine. For
// ids validTenantID admits, no tenant's prefix begins another's.
func physicalPrefix(tenantID string) string {
	return "t_" + strings.ReplaceAll(tenantID, "-", "_") + "__"
}

// Catalog is a tenant's logical namespace over the shared engine.
type Catalog struct {
	reg    *Registry
	id     string
	prefix string
	db     *sql.DB
}

// Catalog opens a tenant's namespace, rejecting suspended tenants.
func (r *Registry) Catalog(id string) (*Catalog, error) {
	info, err := r.Get(id)
	if err != nil {
		return nil, err
	}
	if !info.Active {
		return nil, fmt.Errorf("%w: %s", ErrSuspended, id)
	}
	return &Catalog{reg: r, id: id, prefix: physicalPrefix(id), db: sql.NewDB(r.engine)}, nil
}

// TenantID returns the owning tenant.
func (c *Catalog) TenantID() string { return c.id }

// physical maps a logical table name into the tenant namespace. Names
// already in the namespace pass through (idempotent).
func (c *Catalog) physical(logical string) string {
	if strings.HasPrefix(logical, c.prefix) {
		return logical
	}
	return c.prefix + logical
}

// logical strips the namespace prefix.
func (c *Catalog) logical(physical string) string {
	return strings.TrimPrefix(physical, c.prefix)
}

// Query executes SQL with logical table names, metering the call. ctx
// bounds the statement: cancellation or deadline expiry aborts execution
// at the next row checkpoint and the transaction rolls back.
func (c *Catalog) Query(ctx context.Context, query string, args ...storage.Value) (*sql.Result, error) {
	st, err := c.Prepare(query)
	if err != nil {
		return nil, err
	}
	return c.Run(ctx, nil, st, args)
}

// Prepare parses query once, with its logical table names rewritten
// into the tenant namespace. A SELECT the tenant has run before comes
// from the plan cache, keyed by (tenant, text), without parsing.
func (c *Catalog) Prepare(query string) (*sql.Stmt, error) {
	return c.db.Prepare(c.id, query, c.rewrite)
}

func (c *Catalog) rewrite(stmt sql.Statement) sql.Statement {
	return sql.RewriteTables(stmt, c.physical)
}

// Run executes a statement from Prepare on eng: the shared engine when
// eng is nil, or a read replica. A replica resolves the plan in its own
// plan cache, against its own schema epoch. A statement prepared
// outside this tenant's namespace is refused. Suspension and the plan's
// table cap are checked on every run; a successful run is metered.
func (c *Catalog) Run(ctx context.Context, eng *storage.Engine, st *sql.Stmt, args []storage.Value) (*sql.Result, error) {
	if st.Namespace() != c.id {
		return nil, fmt.Errorf("tenant: statement prepared in namespace %q, not %s", st.Namespace(), c.id)
	}
	if err := c.checkPlan(st.Statement()); err != nil {
		return nil, err
	}
	db := c.db
	if eng != nil && eng != db.Engine {
		db = sql.NewDB(eng)
	}
	res, err := db.Run(ctx, st, args)
	if err != nil {
		return nil, err
	}
	c.reg.Record(c.id, MetricQueries, 1)
	if res.Affected > 0 {
		c.reg.Record(c.id, MetricRowsLoaded, int64(res.Affected))
	}
	return res, nil
}

// Exec is Query returning only the affected count.
func (c *Catalog) Exec(ctx context.Context, query string, args ...storage.Value) (int, error) {
	res, err := c.Query(ctx, query, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// checkPlan rejects statements from a suspended tenant and enforces the
// plan's table cap. The row cap is not checked here: storage enforces it
// inside the writing transaction (see Registry.installQuotas).
func (c *Catalog) checkPlan(stmt sql.Statement) error {
	info, err := c.reg.Get(c.id)
	if err != nil {
		return err
	}
	if !info.Active {
		return fmt.Errorf("%w: %s", ErrSuspended, c.id)
	}
	plan, err := c.reg.Plan(info.Plan)
	if err != nil {
		return err
	}
	if _, ok := stmt.(*sql.CreateTableStmt); ok && plan.MaxTables > 0 && len(c.Tables()) >= plan.MaxTables {
		return fmt.Errorf("%w: plan %s allows %d tables", ErrQuota, plan.Name, plan.MaxTables)
	}
	return nil
}

// Tables lists the tenant's logical table names sorted.
func (c *Catalog) Tables() []string {
	all := c.reg.engine.Tables()
	out := make([]string, 0, len(all))
	for _, tbl := range all {
		if strings.HasPrefix(tbl, c.prefix) {
			out = append(out, c.logical(tbl))
		}
	}
	sort.Strings(out)
	return out
}

// RowCount reports total committed rows in the tenant's namespace. It
// sums storage's per-table live-row counters, so it never scans.
func (c *Catalog) RowCount(ctx context.Context) (int, error) {
	total := 0
	for _, logical := range c.Tables() {
		n, err := c.reg.engine.LiveRows(c.physical(logical))
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// Schema returns the schema of a logical table, with the logical name
// restored.
func (c *Catalog) Schema(logical string) (*storage.Schema, error) {
	s, err := c.reg.engine.Schema(c.physical(logical))
	if err != nil {
		return nil, err
	}
	s.Name = logical
	return s, nil
}

// HasTable reports whether the tenant has the logical table.
func (c *Catalog) HasTable(logical string) bool {
	return c.reg.engine.HasTable(c.physical(logical))
}

// Physical exposes the physical name mapping for substrates (ETL sinks,
// cube builds) that address the engine directly.
func (c *Catalog) Physical(logical string) string { return c.physical(logical) }
