package main

import (
	"context"
	"fmt"
	"os"

	"github.com/odbis/odbis/client"
	"github.com/odbis/odbis/internal/netsrv"
	"github.com/odbis/odbis/internal/security"
	"github.com/odbis/odbis/internal/services"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

const (
	tenantID   = "bench"
	tenantPlan = "standard"
	flushMode  = storage.SyncBuffered
	flushName  = "SyncBuffered (WAL written to the OS at every commit, no fsync)"
)

// host is one self-hosted platform: a durable engine in its own
// directory, the service layer over it, the binary front door on a
// loopback port, and a loaded tenant table.
type host struct {
	dir    string
	engine *storage.Engine
	svc    *services.Platform
	front  *netsrv.Server
	// sess is the tenant designer's service session; client is a pool
	// of at most `clients` protocol connections authenticated as the
	// same user.
	sess   *services.Session
	client *client.Client
	addr   string
	token  string
	// phys is the physical name of the benchmark table in the shared
	// engine.
	phys string
}

// openHost boots a platform in a fresh directory under parent, creates
// the tenant on the standard plan with one designer user, creates the
// table, preloads rows through the front door and builds the id index.
// It wires the layers the way odbis.Open does, minus the HTTP front
// door, replicas, the job scheduler and the services this benchmark
// does not drive, so the ladder can reach each layer's entry point.
func openHost(ctx context.Context, parent string, rows []row, clients int) (h *host, err error) {
	dir, err := os.MkdirTemp(parent, "platform-")
	if err != nil {
		return nil, err
	}
	h = &host{dir: dir}
	defer func() {
		if err != nil {
			h.close()
			h = nil
		}
	}()
	if h.engine, err = storage.Open(storage.Options{Dir: dir, Sync: flushMode}); err != nil {
		return h, err
	}
	reg, err := tenant.NewRegistry(h.engine)
	if err != nil {
		return h, err
	}
	sec, err := security.NewManager(h.engine, security.Options{TokenSecret: []byte("odbis-perfbench")})
	if err != nil {
		return h, err
	}
	h.svc = services.NewPlatform(reg, sec)
	if err := h.svc.Bootstrap("root", "rootpw"); err != nil {
		return h, fmt.Errorf("bootstrap: %w", err)
	}
	h.front = netsrv.New(h.svc, netsrv.Options{})
	addr, err := h.front.Listen("127.0.0.1:0")
	if err != nil {
		return h, err
	}

	root, _, err := h.svc.Login("root", "rootpw")
	if err != nil {
		return h, err
	}
	if _, err := root.CreateTenant(ctx, tenantID, "Benchmark tenant", tenantPlan); err != nil {
		return h, err
	}
	user := security.UserSpec{Username: "analyst", Password: "pw", Tenant: tenantID, Roles: []string{services.RoleDesigner}}
	if err := root.CreateUser(ctx, user); err != nil {
		return h, err
	}
	if h.sess, h.token, err = h.svc.Login(user.Username, user.Password); err != nil {
		return h, err
	}
	h.addr = addr.String()
	if h.client, err = h.dial(clients); err != nil {
		return h, err
	}
	h.phys = h.sess.Catalog.Physical(tableName)

	setup := append([]stmt{{sql: createSQL, write: true}}, loadStmts(rows)...)
	setup = append(setup, stmt{sql: indexSQL, write: true})
	for _, s := range setup {
		res, err := h.client.Query(ctx, s.sql, s.args...)
		if err != nil {
			return h, fmt.Errorf("set-up: %w", err)
		}
		if err := s.check(res.Rows, res.Affected); err != nil {
			return h, fmt.Errorf("set-up: %w", err)
		}
	}
	return h, nil
}

func (h *host) dial(conns int) (*client.Client, error) {
	return client.Dial(client.Config{Addr: h.addr, Token: h.token, MaxConns: conns})
}

// close stops the front door and the services, closes the engine and
// removes the data directory.
func (h *host) close() error {
	if h.client != nil {
		h.client.Close()
	}
	if h.front != nil {
		h.front.Close()
	}
	if h.svc != nil {
		h.svc.Close()
	}
	var err error
	if h.engine != nil {
		err = h.engine.Close()
	}
	if rmErr := os.RemoveAll(h.dir); err == nil {
		err = rmErr
	}
	return err
}
