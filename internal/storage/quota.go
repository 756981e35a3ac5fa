package storage

import (
	"errors"
	"fmt"
	"strings"
	"sync"
)

// ErrQuota reports an insert that would take a capped group of tables
// past its row limit (see SetRowQuota).
var ErrQuota = errors.New("quota exceeded")

// rowQuota caps the committed live rows, plus the rows in-flight
// transactions have reserved, across every table whose name starts with
// prefix. A table belongs to the quota with the longest matching prefix.
//
// Lock order: e.mu, then t.mu, then q.mu.
type rowQuota struct {
	prefix string

	mu sync.Mutex
	//odbis:guardedby mu
	max int
	//odbis:guardedby mu
	live int // committed live rows across member tables
	//odbis:guardedby mu
	reserved int // slots held by open transactions' net inserts
}

// reservation is one transaction's standing against one quota.
type reservation struct {
	q    *rowQuota
	net  int // inserts minus deletes under q so far
	held int // slots reserved from q: the high-water mark of net
}

// SetRowQuota caps the live rows across all tables whose name starts
// with prefix (case-insensitive), current and future. Every Tx.Insert
// into such a table reserves a slot inside its transaction; the insert
// fails with ErrQuota when committed rows plus the slots other open
// transactions hold would pass max. Deletes earlier in the same
// transaction offset inserts, so a group at its cap can still be
// updated. Rollback releases the reservation; commit turns it into
// committed rows. max <= 0 removes the cap. Calling it again with the
// same prefix changes the cap in place, taking effect at the next
// insert.
func (e *Engine) SetRowQuota(prefix string, max int) {
	prefix = lowerName(prefix)
	e.mu.Lock()
	defer e.mu.Unlock()
	q, ok := e.quotas[prefix]
	switch {
	case max <= 0 && ok:
		delete(e.quotas, prefix)
	case max <= 0:
		return
	case ok:
		q.mu.Lock()
		q.max = max
		q.mu.Unlock()
		return
	default:
		if e.quotas == nil {
			e.quotas = make(map[string]*rowQuota)
		}
		e.quotas[prefix] = &rowQuota{prefix: prefix, max: max}
	}
	for key, t := range e.tables {
		if strings.HasPrefix(key, prefix) {
			moveQuota(t, e.quotaFor(key))
		}
	}
}

// quotaFor returns the quota governing the table key, or nil. Caller
// holds e.mu.
func (e *Engine) quotaFor(key string) *rowQuota {
	var best *rowQuota
	for prefix, q := range e.quotas {
		if strings.HasPrefix(key, prefix) && (best == nil || len(prefix) > len(best.prefix)) {
			best = q
		}
	}
	return best
}

// moveQuota makes q (possibly nil) govern t, carrying t's committed
// rows from the old quota to the new one.
func moveQuota(t *table, q *rowQuota) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.quota == q {
		return
	}
	if old := t.quota; old != nil {
		old.mu.Lock()
		old.live -= t.live
		old.mu.Unlock()
	}
	if q != nil {
		q.mu.Lock()
		q.live += t.live
		q.mu.Unlock()
	}
	t.quota = q
}

// LiveRows returns the committed live row count of a table. It reads a
// counter that commit, recovery and replication maintain, so it costs
// the same at any table size.
func (e *Engine) LiveRows(name string) (int, error) {
	t, err := e.getTable(name)
	if err != nil {
		return 0, err
	}
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.live, nil
}

// reservation returns the transaction's standing against q, creating it.
func (tx *Tx) reservation(q *rowQuota) *reservation {
	for i := range tx.quotas {
		if tx.quotas[i].q == q {
			return &tx.quotas[i]
		}
	}
	tx.quotas = append(tx.quotas, reservation{q: q})
	return &tx.quotas[len(tx.quotas)-1]
}

// reserve accounts one insert into t against t's quota, reserving a slot
// unless an earlier delete in this transaction already freed one. Caller
// holds t.mu.
func (tx *Tx) reserve(t *table) error {
	q := t.quota
	if q == nil {
		return nil
	}
	r := tx.reservation(q)
	if r.net < r.held {
		r.net++
		return nil
	}
	q.mu.Lock()
	if q.live+q.reserved >= q.max {
		max := q.max
		q.mu.Unlock()
		return fmt.Errorf("%w: row cap %d reached", ErrQuota, max)
	}
	q.reserved++
	q.mu.Unlock()
	r.held++
	r.net++
	return nil
}

// unreserve accounts one delete from t against t's quota. Caller holds
// t.mu.
func (tx *Tx) unreserve(t *table) {
	if t.quota != nil {
		tx.reservation(t.quota).net--
	}
}

// tableDelta is one table's share of a finished transaction.
type tableDelta struct {
	t          *table
	live, dead int
}

// settle folds a finished transaction into the per-table counters and
// releases its quota reservations. A committed insert adds a live row
// and a committed delete moves one from live to dead; an aborted insert
// strands a dead version. Committed rows land in the quota before the
// reservations are released, so a concurrent inserter never sees the
// group below its true size. Ops with a nil table (replicated ops that
// bootstrap overlap skipped) count for nothing. Tables that accumulated
// many dead versions get an opportunistic vacuum.
func (e *Engine) settle(ops []txOp, resv []reservation, committed bool) {
	if len(ops) == 0 {
		return
	}
	var buf [4]tableDelta
	deltas := buf[:0]
	for _, op := range ops {
		if op.tbl == nil {
			continue
		}
		i := 0
		for i < len(deltas) && deltas[i].t != op.tbl {
			i++
		}
		if i == len(deltas) {
			deltas = append(deltas, tableDelta{t: op.tbl})
		}
		d := &deltas[i]
		switch {
		case committed && op.kind == opInsert:
			d.live++
		case committed:
			d.live--
			d.dead++
		case op.kind == opInsert:
			d.dead++
		}
	}
	for _, d := range deltas {
		t := d.t
		t.mu.Lock()
		t.live += d.live
		t.dead += d.dead
		if q := t.quota; q != nil && d.live != 0 {
			q.mu.Lock()
			q.live += d.live
			q.mu.Unlock()
		}
		vacuum := t.dead >= vacuumThreshold
		t.mu.Unlock()
		if vacuum {
			e.maybeVacuumTable(lowerName(t.schema.Name))
		}
	}
	for _, r := range resv {
		if r.held > 0 {
			r.q.mu.Lock()
			r.q.reserved -= r.held
			r.q.mu.Unlock()
		}
	}
}
