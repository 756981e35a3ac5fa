package services

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/storage/orm"
)

// The Meta-Data Service (MDS) "allows meta-data and business information
// definition to facilitate information sharing and exchange between all
// services" (§3.1). Its current-release scope, per §3.3: DataSource
// objects (connection descriptors) and DataSet objects ("a SQL query
// abstraction used by charts, data-tables and dashboards"), plus business
// terms from the CWMX nomenclature extension.

// Errors of the metadata service.
var (
	ErrNoDataSource = errors.New("services: no such data source")
	ErrNoDataSet    = errors.New("services: no such data set")
	ErrMetaExists   = errors.New("services: metadata object already exists")
)

// DataSource describes where a data set's data lives. In this platform
// every tenant source resolves to the shared engine through the tenant
// catalog, mirroring the paper's single multi-tenant database; URL/User
// document external origins for ETL.
type DataSource struct {
	Key     string `orm:"key,pk"` // tenant|name
	Tenant  string `orm:"tenant,index"`
	Name    string
	Kind    string // "internal", "csv", "json"
	URL     string
	User    string
	Created time.Time
}

// DataSet is a named SQL query over a data source.
type DataSet struct {
	Key         string `orm:"key,pk"` // tenant|name
	Tenant      string `orm:"tenant,index"`
	Name        string
	Source      string // data-source name
	Query       string
	Description string
	Created     time.Time
}

// BusinessTerm is one glossary entry (CWMX nomenclature).
type BusinessTerm struct {
	Key        string `orm:"key,pk"` // tenant|name
	Tenant     string `orm:"tenant,index"`
	Name       string
	Definition string
	// Element links the term to a technical element (table, column,
	// cube).
	Element string
}

// Metadata is the MDS implementation.
type Metadata struct {
	sources *orm.Mapper[DataSource]
	sets    *orm.Mapper[DataSet]
	terms   *orm.Mapper[BusinessTerm]
}

// NewMetadata opens the service over the shared engine.
func NewMetadata(e *storage.Engine) (*Metadata, error) {
	srcs, err := orm.NewMapper[DataSource](e, "mds_sources") //odbis:ignore tenantisolation -- shared metadata catalog (paper Fig. 4), tenant-scoped per row
	if err != nil {
		return nil, err
	}
	sets, err := orm.NewMapper[DataSet](e, "mds_datasets") //odbis:ignore tenantisolation -- shared metadata catalog (paper Fig. 4), tenant-scoped per row
	if err != nil {
		return nil, err
	}
	terms, err := orm.NewMapper[BusinessTerm](e, "mds_terms") //odbis:ignore tenantisolation -- shared metadata catalog (paper Fig. 4), tenant-scoped per row
	if err != nil {
		return nil, err
	}
	return &Metadata{sources: srcs, sets: sets, terms: terms}, nil
}

func metaKey(tenantID, name string) string { return tenantID + "|" + name }

// --- session-level API ---

// metadata lazily opens the MDS once; it is shared across sessions.
func (p *Platform) metadata() (*Metadata, error) {
	p.once.Do(func() {
		p.md, p.mdErr = NewMetadata(p.Registry.Engine())
	})
	return p.md, p.mdErr
}

// CreateDataSource registers a source for the session tenant.
func (s *Session) CreateDataSource(ctx context.Context, name, kind, url, user string) error {
	if err := s.authorize(AuthMetadataWrite); err != nil {
		return err
	}
	if _, err := s.requireCatalog(); err != nil {
		return err
	}
	if name == "" {
		return fmt.Errorf("services: data source needs a name")
	}
	md, err := s.p.metadata()
	if err != nil {
		return err
	}
	key := metaKey(s.Principal.Tenant, name)
	if _, ok, _ := md.sources.Get(key); ok {
		return fmt.Errorf("%w: data source %s", ErrMetaExists, name)
	}
	if kind == "" {
		kind = "internal"
	}
	return md.sources.Insert(&DataSource{
		Key: key, Tenant: s.Principal.Tenant, Name: name,
		Kind: kind, URL: url, User: user, Created: time.Now().UTC(),
	})
}

// DataSources lists the tenant's sources sorted by name.
func (s *Session) DataSources(ctx context.Context) ([]DataSource, error) {
	if err := s.authorize(AuthMetadataRead); err != nil {
		return nil, err
	}
	md, err := s.p.metadata()
	if err != nil {
		return nil, err
	}
	rows, err := md.sources.Where("tenant", s.Principal.Tenant)
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// DeleteDataSource removes a source.
func (s *Session) DeleteDataSource(ctx context.Context, name string) error {
	if err := s.authorize(AuthMetadataWrite); err != nil {
		return err
	}
	md, err := s.p.metadata()
	if err != nil {
		return err
	}
	ok, err := md.sources.Delete(metaKey(s.Principal.Tenant, name))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDataSource, name)
	}
	return nil
}

// CreateDataSet registers a named query. The query must parse; execution
// happens on demand.
func (s *Session) CreateDataSet(ctx context.Context, name, source, query, description string) error {
	if err := s.authorize(AuthMetadataWrite); err != nil {
		return err
	}
	if _, err := s.requireCatalog(); err != nil {
		return err
	}
	if name == "" || query == "" {
		return fmt.Errorf("services: data set needs a name and a query")
	}
	if _, err := sql.Parse(query); err != nil {
		return fmt.Errorf("services: data set %s: %w", name, err)
	}
	md, err := s.p.metadata()
	if err != nil {
		return err
	}
	key := metaKey(s.Principal.Tenant, name)
	if _, ok, _ := md.sets.Get(key); ok {
		return fmt.Errorf("%w: data set %s", ErrMetaExists, name)
	}
	return md.sets.Insert(&DataSet{
		Key: key, Tenant: s.Principal.Tenant, Name: name, Source: source,
		Query: query, Description: description, Created: time.Now().UTC(),
	})
}

// DataSets lists the tenant's data sets sorted by name.
func (s *Session) DataSets(ctx context.Context) ([]DataSet, error) {
	if err := s.authorize(AuthMetadataRead); err != nil {
		return nil, err
	}
	md, err := s.p.metadata()
	if err != nil {
		return nil, err
	}
	rows, err := md.sets.Where("tenant", s.Principal.Tenant)
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}

// DataSet fetches one data set.
func (s *Session) DataSet(ctx context.Context, name string) (*DataSet, error) {
	if err := s.authorize(AuthMetadataRead); err != nil {
		return nil, err
	}
	return s.dataSet(name)
}

func (s *Session) dataSet(name string) (*DataSet, error) {
	md, err := s.p.metadata()
	if err != nil {
		return nil, err
	}
	ds, ok, err := md.sets.Get(metaKey(s.Principal.Tenant, name))
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoDataSet, name)
	}
	return &ds, nil
}

// DeleteDataSet removes a data set.
func (s *Session) DeleteDataSet(ctx context.Context, name string) error {
	if err := s.authorize(AuthMetadataWrite); err != nil {
		return err
	}
	md, err := s.p.metadata()
	if err != nil {
		return err
	}
	ok, err := md.sets.Delete(metaKey(s.Principal.Tenant, name))
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoDataSet, name)
	}
	return nil
}

// RunDataSet executes a stored data set against the tenant catalog,
// authorized and routed as Query would the same text.
func (s *Session) RunDataSet(ctx context.Context, name string, args ...storage.Value) (*sql.Result, error) {
	ds, err := s.dataSet(name)
	if err != nil {
		return nil, err
	}
	return s.run(ctx, ds.Query, args)
}

// Query runs ad-hoc SQL against the tenant catalog (requires read
// authority; DDL/DML require write).
func (s *Session) Query(ctx context.Context, query string, args ...storage.Value) (*sql.Result, error) {
	ctx, span := obs.StartSpan(ctx, "services.query")
	defer span.End()
	return s.run(ctx, query, args)
}

// run is the one statement path behind Query and RunDataSet: prepare
// the text once (a plan-cache hit skips the parse), authorize from the
// statement's type, then serve a SELECT from an eligible replica or run
// on the primary.
func (s *Session) run(ctx context.Context, query string, args []storage.Value) (*sql.Result, error) {
	cat, err := s.requireCatalog()
	if err != nil {
		return nil, err
	}
	st, err := cat.Prepare(query)
	if err != nil {
		return nil, err
	}
	authority, routable := AuthMetadataRead, false
	switch st.Statement().(type) {
	case *sql.SelectStmt:
		routable = true
	case *sql.ExplainStmt:
		// read-only, but always planned on the primary so the rendered
		// plan reflects the authoritative engine
	default:
		authority = AuthMetadataWrite
	}
	if err := s.authorize(authority); err != nil {
		return nil, err
	}
	if err := fault.PointCtx(ctx, fault.ServicesQuery); err != nil {
		return nil, err
	}
	if routable {
		if res, ok := s.tryReplica(ctx, cat, st, args); ok {
			return res, nil
		}
	}
	res, err := cat.Run(s.scope(ctx), nil, st, args)
	if err != nil {
		return nil, err
	}
	if authority == AuthMetadataWrite {
		// The write is committed: pin this user's routed reads to the
		// primary's ship position so read-your-writes holds on replicas.
		s.p.notePin(s.Principal.Username)
	} else {
		mReadsPrimary.Inc()
	}
	return res, nil
}

// DefineTerm stores a business-glossary term.
func (s *Session) DefineTerm(ctx context.Context, name, definition, element string) error {
	if err := s.authorize(AuthMetadataWrite); err != nil {
		return err
	}
	if name == "" || definition == "" {
		return fmt.Errorf("services: term needs a name and a definition")
	}
	md, err := s.p.metadata()
	if err != nil {
		return err
	}
	return md.terms.Save(&BusinessTerm{
		Key: metaKey(s.Principal.Tenant, name), Tenant: s.Principal.Tenant,
		Name: name, Definition: definition, Element: element,
	})
}

// Terms lists the tenant's glossary sorted by name.
func (s *Session) Terms(ctx context.Context) ([]BusinessTerm, error) {
	if err := s.authorize(AuthMetadataRead); err != nil {
		return nil, err
	}
	md, err := s.p.metadata()
	if err != nil {
		return nil, err
	}
	rows, err := md.terms.Where("tenant", s.Principal.Tenant)
	if err != nil {
		return nil, err
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return rows, nil
}
