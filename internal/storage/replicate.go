package storage

import (
	"bytes"
	"errors"
	"fmt"

	"github.com/odbis/odbis/internal/fault"
)

// The follower side of WAL-frame shipping: ApplyReplicated applies one
// shipped frame (ship.go) to a replica engine. Apply is idempotent —
// bootstrap overlap means the first frames after a state dump may
// describe mutations the dump already contains — and atomic per frame:
// a commit frame's rows become visible to replica readers all at once,
// or (on a mid-frame failure) never.

// ErrBadFrame reports a shipped frame that cannot be decoded — a torn or
// corrupt stream. The replica must stop applying and re-bootstrap.
var ErrBadFrame = errors.New("storage: corrupt replication frame")

// beginReplicatedTx allocates a replica-local transaction id registered
// active, without taking a snapshot (replicated ops carry their own
// conflict-free ordering from the primary).
func (e *Engine) beginReplicatedTx() uint64 {
	e.txMu.Lock()
	id := e.nextTxID.Add(1) - 1
	e.txActive[id] = true
	e.txMu.Unlock()
	return id
}

// ApplyReplicated applies one shipped WAL frame to this engine. Frames
// must be applied in ship order by a single goroutine; replica readers
// may run concurrently. A decode failure (ErrBadFrame) or an injected
// apply fault leaves no partially visible commit: the frame's writes are
// parked under an aborted local transaction id and the caller is
// expected to re-bootstrap the replica.
func (e *Engine) ApplyReplicated(payload []byte) error {
	if len(payload) == 0 {
		return ErrBadFrame
	}
	dec := newDecoder(bytes.NewReader(payload))
	switch typ := dec.byte(); typ {
	case recCreateTable:
		s := dec.schema()
		if dec.err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
		}
		if err := s.Validate(); err != nil {
			return err
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.closed {
			return ErrClosed
		}
		key := lowerName(s.Name)
		if _, ok := e.tables[key]; ok {
			return nil // already applied (bootstrap overlap)
		}
		t := &table{schema: s, byRID: make(map[RID]rowID), indexes: make(map[string]*index)}
		if len(s.PrimaryKey) > 0 {
			pk := e.buildIndex(t, IndexInfo{
				Name:    s.Name + "_pkey",
				Table:   s.Name,
				Columns: append([]string(nil), s.PrimaryKey...),
				Unique:  true,
				Kind:    IndexBTree,
			})
			t.pkIndex = pk
			t.indexes[lowerName(pk.info.Name)] = pk
		}
		e.tables[key] = t
		e.schemaEpoch.Add(1)
		return nil
	case recDropTable:
		name := dec.str()
		if dec.err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
		}
		e.mu.Lock()
		defer e.mu.Unlock()
		if e.closed {
			return ErrClosed
		}
		key := lowerName(name)
		if _, ok := e.tables[key]; !ok {
			return nil
		}
		delete(e.tables, key)
		e.schemaEpoch.Add(1)
		return nil
	case recCreateIndex:
		info := decodeIndexInfo(dec)
		if dec.err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
		}
		t, err := e.getTable(info.Table)
		if err != nil {
			return nil // table dropped by a later frame; the drop governs
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		key := lowerName(info.Name)
		if _, ok := t.indexes[key]; ok {
			return nil
		}
		t.indexes[key] = e.buildIndex(t, info)
		e.schemaEpoch.Add(1)
		return nil
	case recDropIndex:
		tbl, name := dec.str(), dec.str()
		if dec.err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
		}
		t, err := e.getTable(tbl)
		if err != nil {
			return nil
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		key := lowerName(name)
		ix, ok := t.indexes[key]
		if !ok || ix == t.pkIndex {
			return nil
		}
		delete(t.indexes, key)
		e.schemaEpoch.Add(1)
		return nil
	case recSequence:
		name := dec.str()
		v := dec.varint()
		if dec.err != nil {
			return fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
		}
		e.setSequence(name, v) // max-merge: idempotent
		return nil
	case recCommit:
		_ = dec.uvarint() // primary txid: informational only, see below
		nops := dec.uvarint()
		if dec.err != nil || nops > maxBlob {
			return ErrBadFrame
		}
		// Decode every op before touching any table: a torn or corrupt
		// frame must never partially apply.
		ops := make([]txOp, 0, nops)
		for i := uint64(0); i < nops; i++ {
			op := txOp{kind: txOpKind(dec.byte()), table: dec.str(), rid: RID(dec.uvarint())}
			if op.kind == opInsert {
				op.row = dec.row()
			}
			if dec.err != nil {
				return fmt.Errorf("%w: %v", ErrBadFrame, dec.err)
			}
			if op.kind != opInsert && op.kind != opDelete {
				return ErrBadFrame
			}
			ops = append(ops, op)
		}
		return e.applyReplicatedTx(ops)
	default:
		return fmt.Errorf("%w: unknown frame type %q", ErrBadFrame, typ)
	}
}

// applyReplicatedTx applies one commit frame's ops under a fresh
// replica-local transaction id. Only the ops that actually applied carry
// their table into settle, so bootstrap overlap never double-counts live
// rows.
//
// The frame's primary txid is deliberately not reused for xmin/xmax:
// replica-local read transactions draw ids from the same counter, so a
// primary id could collide with a local id whose status (active or
// aborted) would corrupt the visibility of replicated rows — an aborted
// local reader sharing a replicated delete's id would resurrect the
// deleted row. The local id is registered active for the duration of the
// apply, so concurrent replica readers see the frame all-or-nothing.
func (e *Engine) applyReplicatedTx(ops []txOp) error {
	local := e.beginReplicatedTx()
	var maxRID uint64
	applied := 0
	for i, op := range ops {
		if i > 0 {
			// The partial-apply window of a multi-op frame.
			if err := fault.Point(fault.ReplicaApplyMid); err != nil {
				e.abortReplicatedTx(local, ops[:applied])
				return err
			}
		}
		t, err := e.applyReplicatedOp(local, op)
		if err != nil {
			e.abortReplicatedTx(local, ops[:applied])
			return err
		}
		ops[i].tbl = t
		applied++
		if uint64(op.rid) > maxRID {
			maxRID = uint64(op.rid)
		}
	}
	e.finishTx(local)
	e.settle(ops, nil, true)
	// Keep the local RID horizon past every replicated rid so local
	// allocations (none today, but Attachment users may mint rids) never
	// collide with future frames.
	for {
		cur := e.nextRID.Load()
		if maxRID < cur || e.nextRID.CompareAndSwap(cur, maxRID+1) {
			break
		}
	}
	return nil
}

// abortReplicatedTx undoes a partially applied frame like a rolled-back
// transaction: the partial writes stay in the heap but are invisible to
// every present and future reader, and vacuum reclaims them. The replica
// is expected to re-bootstrap.
func (e *Engine) abortReplicatedTx(local uint64, partial []txOp) {
	e.abortTx(local, partial, nil)
}

// applyReplicatedOp applies one op and returns the table it changed, or
// nil when the op was already reflected (bootstrap overlap) or its table
// is gone.
func (e *Engine) applyReplicatedOp(local uint64, op txOp) (*table, error) {
	t, err := e.getTable(op.table)
	if err != nil {
		if errors.Is(err, ErrNoTable) {
			// Dropped by a frame the bootstrap dump already contained;
			// the drop governs.
			return nil, nil
		}
		return nil, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	switch op.kind {
	case opInsert:
		if _, ok := t.byRID[op.rid]; ok {
			return nil, nil // already applied (bootstrap overlap)
		}
		slot := rowID(len(t.versions))
		t.versions = append(t.versions, version{rid: op.rid, row: op.row, xmin: local})
		t.byRID[op.rid] = slot
		for _, ix := range t.indexes {
			ix.insert(ix.keyFor(op.row), slot)
		}
	case opDelete:
		slot, ok := t.byRID[op.rid]
		if !ok {
			return nil, nil // delete already reflected in the bootstrap dump
		}
		v := &t.versions[slot]
		if v.xmax != 0 {
			return nil, nil // already deleted (bootstrap overlap)
		}
		v.xmax = local
	}
	return t, nil
}
