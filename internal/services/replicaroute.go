package services

import (
	"context"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/replica"
	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
	"github.com/odbis/odbis/internal/tenant"
)

// Read routing over WAL-shipped replicas.
//
// Session.Query and RunDataSet classify each prepared statement by
// authority; routable reads (SELECTs, cached or cold — never EXPLAIN,
// never writes) are offered to the replica set first and execute on the
// replica's engine. A replica is eligible only when it is healthy,
// within the configured lag bound, and has applied past the caller's
// read-your-writes pin; anything else — no replicas attached, all lagging
// or tripped, or a failure mid-read — falls back to the primary within
// the same request, invisibly to the caller.

var (
	mReadsReplica = obs.GetCounter("odbis_reads_replica_total")
	mReadsPrimary = obs.GetCounter("odbis_reads_primary_total")
)

// AttachReplicas wires a replica set into the query router. Call once at
// platform assembly, before serving; a nil set (or never calling) keeps
// every read on the primary with no routing overhead beyond a nil check.
func (p *Platform) AttachReplicas(set *replica.Set) {
	p.Replicas = set
}

// readPin returns the primary ship LSN the user's routed reads must wait
// for — the position of their last write, or zero if they never wrote.
func (p *Platform) readPin(user string) uint64 {
	p.pinMu.Lock()
	defer p.pinMu.Unlock()
	return p.pins[user]
}

// notePin records that the user's writes are visible at the primary's
// current ship position. Sessions are rebuilt per request, so the pin
// lives on the platform keyed by username: a user who writes and then
// reads — even over different connections — never sees a replica that
// predates their write.
func (p *Platform) notePin(user string) {
	set := p.Replicas
	if set == nil {
		return
	}
	lsn := set.PrimaryLSN()
	p.pinMu.Lock()
	if p.pins == nil {
		p.pins = make(map[string]uint64)
	}
	if lsn > p.pins[user] {
		p.pins[user] = lsn
	}
	p.pinMu.Unlock()
}

// tryReplica serves a routed read from an eligible replica. ok=false
// means "use the primary": no set attached, no replica eligible, or the
// attempt failed — an apply-side panic or error during the read falls
// back to the primary in the same request rather than surfacing to the
// caller. A statement that genuinely fails (say, an unknown table) also
// returns ok=false and re-fails identically on the primary, which keeps
// error text and metering single-sourced; the prepared statement is
// reused, so the fallback does not parse again.
func (s *Session) tryReplica(ctx context.Context, cat *tenant.Catalog, st *sql.Stmt, args []storage.Value) (res *sql.Result, ok bool) {
	set := s.p.Replicas
	if set == nil {
		return nil, false
	}
	eng := set.PickFor(s.p.readPin(s.Principal.Username))
	if eng == nil {
		return nil, false
	}
	defer func() {
		if r := recover(); r != nil {
			res, ok = nil, false
		}
	}()
	if err := fault.PointCtx(ctx, fault.ReplicaRead); err != nil {
		return nil, false
	}
	r, err := cat.Run(s.scope(ctx), eng, st, args)
	if err != nil {
		return nil, false
	}
	mReadsReplica.Inc()
	return r, true
}
