package sql

import (
	"context"
	"fmt"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/fault"
	"github.com/odbis/odbis/internal/obs"
	"github.com/odbis/odbis/internal/storage"
)

// DB executes SQL against a storage engine.
type DB struct {
	// Engine is the underlying storage engine.
	Engine *storage.Engine
	// DisableIndexes forces full scans even when an index matches the
	// predicate; used by the index-ablation benchmarks (DESIGN.md A1).
	DisableIndexes bool
}

// NewDB wraps an engine.
func NewDB(e *storage.Engine) *DB { return &DB{Engine: e} }

// Result is the outcome of a query.
type Result struct {
	Columns []string
	Rows    []storage.Row
	// Affected is the row count touched by INSERT/UPDATE/DELETE.
	Affected int
	// Plan describes the chosen access path for the outermost table
	// ("scan" or "index:<name>"), for tests and EXPLAIN-style output.
	Plan string
}

// Query parses and executes a statement inside its own transaction.
// Positional ? placeholders bind to args in order.
func (db *DB) Query(query string, args ...storage.Value) (*Result, error) {
	return db.QueryContext(context.Background(), query, args...)
}

// QueryContext is Query bound to ctx: the executor checks ctx at
// row-granularity checkpoints (scans, joins, grouping, sorting), and a
// cancelled or expired ctx aborts the statement with the ctx error after
// rolling the transaction back.
func (db *DB) QueryContext(ctx context.Context, query string, args ...storage.Value) (*Result, error) {
	st, err := db.Prepare("", query, nil)
	if err != nil {
		return nil, err
	}
	return db.Run(ctx, st, args)
}

// Exec runs a statement and returns the affected row count.
func (db *DB) Exec(query string, args ...storage.Value) (int, error) {
	return db.ExecContext(context.Background(), query, args...)
}

// ExecContext is Exec bound to ctx.
func (db *DB) ExecContext(ctx context.Context, query string, args ...storage.Value) (int, error) {
	res, err := db.QueryContext(ctx, query, args...)
	if err != nil {
		return 0, err
	}
	return res.Affected, nil
}

// Run executes a prepared statement inside its own transaction on db's
// engine. The executor observes ctx (see QueryContext).
func (db *DB) Run(ctx context.Context, st *Stmt, args []storage.Value) (*Result, error) {
	ctx, span := obs.StartSpan(ctx, "sql.exec")
	defer span.End()
	var res *Result
	err := db.Engine.UpdateCtx(ctx, func(tx *storage.Tx) error {
		// The sql.exec point fires inside the transaction on purpose: a
		// panic injected here unwinds through UpdateCtx's deferred
		// rollback and on into the server's recovery middleware — the
		// full "handler dies mid-transaction" drill.
		if err := fault.PointCtx(ctx, fault.SQLExec); err != nil {
			return err
		}
		var err error
		res, err = db.RunTx(tx, st, args)
		return err
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// RunTx executes a prepared statement inside an existing transaction on
// db's engine. A SELECT runs the plan resolved against that engine's
// schema epoch.
func (db *DB) RunTx(tx *storage.Tx, st *Stmt, args []storage.Value) (*Result, error) {
	var p *Plan
	if e := db.entryFor(st); e != nil {
		var err error
		if p, err = e.resolve(db); err != nil {
			return nil, err
		}
	}
	ex := db.newExecutor(tx)
	var res *Result
	var err error
	if p != nil {
		res, err = ex.execPlan(p, args, nil)
	} else {
		res, err = ex.run(st.stmt, args)
	}
	ex.flush()
	return res, err
}

func (db *DB) newExecutor(tx *storage.Tx) *executor {
	return &executor{db: db, tx: tx, ctx: tx.Context(), now: time.Now().UTC().Truncate(time.Microsecond)}
}

// flush publishes the executor's locally accumulated figures in one
// shot per statement — the per-row loops stay metric-free.
func (ex *executor) flush() {
	mSQLStatements.Inc()
	if ex.ticks > 0 {
		mSQLRows.Add(int64(ex.ticks))
		obs.AddTenant(ex.ctx, obs.TenantRowsScanned, int64(ex.ticks))
	}
	if ex.yields > 0 {
		mSQLYields.Add(int64(ex.yields))
	}
}

func (ex *executor) run(stmt Statement, params []storage.Value) (*Result, error) {
	db := ex.db
	switch s := stmt.(type) {
	case *ExplainStmt:
		return ex.runExplain(s)
	case *InsertStmt:
		return ex.runInsert(s, params)
	case *UpdateStmt:
		return ex.runUpdate(s, params)
	case *DeleteStmt:
		return ex.runDelete(s, params)
	case *CreateTableStmt:
		if s.IfNotExists && db.Engine.HasTable(s.Schema.Name) {
			return &Result{}, nil
		}
		return &Result{}, db.Engine.CreateTable(s.Schema)
	case *CreateIndexStmt:
		return &Result{}, db.Engine.CreateIndex(s.Info)
	case *DropTableStmt:
		if s.IfExists && !db.Engine.HasTable(s.Table) {
			return &Result{}, nil
		}
		return &Result{}, db.Engine.DropTable(s.Table)
	case *DropIndexStmt:
		return &Result{}, db.Engine.DropIndex(s.Table, s.Index)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

type executor struct {
	db     *DB
	tx     *storage.Tx
	ctx    context.Context
	now    time.Time
	ticks  int
	yields int
	// pool recycles batches across this statement's operators.
	pool storage.BatchPool
}

// step is the executor's cooperative-cancellation checkpoint, called once
// per row in the filter/join/group/projection loops. Only every 64th call
// consults the context so the hot path stays branch-cheap.
func (ex *executor) step() error {
	ex.ticks++
	if ex.ticks&63 != 0 || ex.ctx == nil {
		return nil
	}
	ex.yields++
	return ex.ctx.Err()
}

// binding describes one FROM entry's name and columns.
type binding struct {
	name string // lower-cased alias or table name
	cols []string
	// read marks the columns the plan reads (bind.go). It is nil where
	// whole rows are read anyway: DML targets and expression scopes.
	read []bool
}

// markRead records that the plan reads column ord of the binding.
func (b binding) markRead(ord int) {
	if b.read != nil {
		b.read[ord] = true
	}
}

// readCols returns the sorted ordinals of the columns the plan reads.
func (b binding) readCols() []int {
	cols := make([]int, 0, len(b.read))
	for j, r := range b.read {
		if r {
			cols = append(cols, j)
		}
	}
	return cols
}

func (ex *executor) schemaOf(table string) (*storage.Schema, error) {
	return ex.db.Engine.Schema(table)
}

func lowerCols(s *storage.Schema) []string {
	cols := make([]string, len(s.Columns))
	for i, c := range s.Columns {
		cols[i] = strings.ToLower(c.Name)
	}
	return cols
}

// runExplain plans the inner SELECT without executing it and returns
// the rendered plan tree, one line per row.
func (ex *executor) runExplain(s *ExplainStmt) (*Result, error) {
	p, err := planSelect(ex.db, s.Sel, nil)
	if err != nil {
		return nil, err
	}
	lines := p.Explain()
	rows := make([]storage.Row, len(lines))
	for i, line := range lines {
		rows[i] = storage.Row{line}
	}
	return &Result{Columns: []string{"plan"}, Rows: rows, Plan: p.AccessPath()}, nil
}

// unionOrderPos resolves an ORDER BY key of a union to an output column
// position: 1-based literal, select alias, or projected column name.
func unionOrderPos(e Expr, items []SelectItem, columns []string) (int, error) {
	switch x := e.(type) {
	case *Literal:
		if n, ok := x.Val.(int64); ok {
			if n < 1 || int(n) > len(columns) {
				return 0, fmt.Errorf("sql: ORDER BY position %d is not in the select list", n)
			}
			return int(n - 1), nil
		}
	case *ColumnRef:
		if x.Table == "" {
			for i, item := range items {
				if item.Alias != "" && strings.EqualFold(item.Alias, x.Column) {
					return i, nil
				}
			}
			for i, c := range columns {
				if strings.EqualFold(c, x.Column) {
					return i, nil
				}
			}
		}
	}
	return 0, fmt.Errorf("sql: ORDER BY over UNION must name an output column or position, got %s", e.String())
}

// collectAggregates appends every aggregate FuncCall in e that acc does
// not hold yet (not descending into subqueries, which are independently
// executed). An ORDER BY key that names an aggregate select item shares
// its node, so the aggregate is computed once.
func collectAggregates(e Expr, acc []*FuncCall) []*FuncCall {
	switch x := e.(type) {
	case nil:
		return acc
	case *FuncCall:
		if isAggregate(x.Name) {
			for _, a := range acc {
				if a == x {
					return acc
				}
			}
			return append(acc, x)
		}
		for _, a := range x.Args {
			acc = collectAggregates(a, acc)
		}
	case *BinaryExpr:
		acc = collectAggregates(x.Left, acc)
		acc = collectAggregates(x.Right, acc)
	case *UnaryExpr:
		acc = collectAggregates(x.X, acc)
	case *InExpr:
		acc = collectAggregates(x.X, acc)
		for _, it := range x.List {
			acc = collectAggregates(it, acc)
		}
	case *BetweenExpr:
		acc = collectAggregates(x.X, acc)
		acc = collectAggregates(x.Lo, acc)
		acc = collectAggregates(x.Hi, acc)
	case *IsNullExpr:
		acc = collectAggregates(x.X, acc)
	case *CaseExpr:
		acc = collectAggregates(x.Operand, acc)
		for _, w := range x.Whens {
			acc = collectAggregates(w.Cond, acc)
			acc = collectAggregates(w.Then, acc)
		}
		acc = collectAggregates(x.Else, acc)
	case *CastExpr:
		acc = collectAggregates(x.X, acc)
	}
	return acc
}

// expandStars replaces * and t.* items with column references bound to
// their binding and ordinal; the other items take their bound
// expression from selBound.
func expandStars(items []SelectItem, selBound []Expr, bindings []binding) ([]SelectItem, error) {
	out := make([]SelectItem, 0, len(items))
	for i, item := range items {
		if !item.Star {
			out = append(out, SelectItem{Expr: selBound[i], Alias: item.Alias})
			continue
		}
		matched := false
		for bi, b := range bindings {
			if item.Table != "" && !strings.EqualFold(item.Table, b.name) {
				continue
			}
			matched = true
			for j, c := range b.cols {
				b.markRead(j)
				out = append(out, SelectItem{
					Expr:  &colRef{ref: &ColumnRef{Table: b.name, Column: c}, bind: bi, ord: j},
					Alias: c,
				})
			}
		}
		if !matched {
			if item.Table != "" {
				return nil, fmt.Errorf("sql: unknown table %q in %s.*", item.Table, item.Table)
			}
			return nil, fmt.Errorf("sql: SELECT * requires a FROM clause")
		}
	}
	return out, nil
}

func outputColumns(items []SelectItem) []string {
	cols := make([]string, len(items))
	for i, item := range items {
		switch {
		case item.Alias != "":
			cols[i] = item.Alias
		default:
			if cr, ok := item.Expr.(*colRef); ok {
				cols[i] = cr.ref.Column
			} else {
				cols[i] = item.Expr.String()
			}
		}
	}
	return cols
}
