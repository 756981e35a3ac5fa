package sql

import (
	"fmt"
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

func (ex *executor) runInsert(ins *InsertStmt, params []storage.Value) (*Result, error) {
	schema, err := ex.schemaOf(ins.Table)
	if err != nil {
		return nil, err
	}
	cols := ins.Columns
	if len(cols) == 0 {
		cols = schema.ColumnNames()
	}
	positions := make([]int, len(cols))
	for i, c := range cols {
		pos, ok := schema.ColumnIndex(c)
		if !ok {
			return nil, fmt.Errorf("sql: table %s has no column %q", ins.Table, c)
		}
		positions[i] = pos
	}
	ec := &evalCtx{params: params, exec: ex, now: ex.now}
	affected := 0
	for _, exprRow := range ins.Rows {
		if err := ex.step(); err != nil {
			return nil, err
		}
		if len(exprRow) != len(cols) {
			return nil, fmt.Errorf("sql: INSERT expects %d values, got %d", len(cols), len(exprRow))
		}
		// VALUES admit no column references (a nil scope).
		exprRow, err := bindExprs(ex.db, exprRow, nil)
		if err != nil {
			return nil, err
		}
		row := make(storage.Row, len(schema.Columns))
		for i := range schema.Columns {
			row[i] = schema.Columns[i].Default
		}
		for i, e := range exprRow {
			v, err := ec.eval(e)
			if err != nil {
				return nil, err
			}
			row[positions[i]] = v
		}
		if _, err := ex.tx.Insert(ins.Table, row); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

func (ex *executor) runUpdate(upd *UpdateStmt, params []storage.Value) (*Result, error) {
	schema, err := ex.schemaOf(upd.Table)
	if err != nil {
		return nil, err
	}
	setPos := make([]int, len(upd.Set))
	for i, a := range upd.Set {
		pos, ok := schema.ColumnIndex(a.Column)
		if !ok {
			return nil, fmt.Errorf("sql: table %s has no column %q", upd.Table, a.Column)
		}
		setPos[i] = pos
	}
	env, sc := dmlScope(upd.Table, schema)
	where, err := bindExpr(ex.db, upd.Where, sc)
	if err != nil {
		return nil, err
	}
	setExprs := make([]Expr, len(upd.Set))
	for i, a := range upd.Set {
		if setExprs[i], err = bindExpr(ex.db, a.Value, sc); err != nil {
			return nil, err
		}
	}
	ec := &evalCtx{params: params, exec: ex, now: ex.now, row: env}

	// Collect targets first (RIDs + current rows), then apply updates.
	type target struct {
		rid storage.RID
		row storage.Row
	}
	var targets []target
	err = ex.tx.Scan(upd.Table, func(rid storage.RID, row storage.Row) bool {
		targets = append(targets, target{rid: rid, row: row.Clone()})
		return true
	})
	if err != nil {
		return nil, err
	}
	affected := 0
	for _, tgt := range targets {
		if err := ex.step(); err != nil {
			return nil, err
		}
		env.tables[0].vals = tgt.row
		if where != nil {
			ok, err := ec.evalBool(where)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		newRow := tgt.row.Clone()
		for i, e := range setExprs {
			v, err := ec.eval(e)
			if err != nil {
				return nil, err
			}
			newRow[setPos[i]] = v
		}
		if _, err := ex.tx.UpdateRID(upd.Table, tgt.rid, newRow); err != nil {
			return nil, err
		}
		affected++
	}
	return &Result{Affected: affected}, nil
}

func (ex *executor) runDelete(del *DeleteStmt, params []storage.Value) (*Result, error) {
	schema, err := ex.schemaOf(del.Table)
	if err != nil {
		return nil, err
	}
	env, sc := dmlScope(del.Table, schema)
	where, err := bindExpr(ex.db, del.Where, sc)
	if err != nil {
		return nil, err
	}
	ec := &evalCtx{params: params, exec: ex, now: ex.now, row: env}
	var rids []storage.RID
	err = ex.tx.Scan(del.Table, func(rid storage.RID, row storage.Row) bool {
		if where != nil {
			env.tables[0].vals = row
			ok, err := ec.evalBool(where)
			if err != nil || !ok {
				return true
			}
		}
		rids = append(rids, rid)
		return true
	})
	if err != nil {
		return nil, err
	}
	for _, rid := range rids {
		if err := ex.step(); err != nil {
			return nil, err
		}
		if err := ex.tx.DeleteRID(del.Table, rid); err != nil {
			return nil, err
		}
	}
	return &Result{Affected: len(rids)}, nil
}

// dmlScope returns the single-table scope an UPDATE or DELETE binds its
// expressions in, and the row environment they evaluate against.
func dmlScope(table string, schema *storage.Schema) (*rowEnv, *scope) {
	b := binding{name: strings.ToLower(table), cols: lowerCols(schema)}
	return &rowEnv{tables: []boundTable{{width: len(b.cols)}}}, &scope{bindings: []binding{b}}
}
