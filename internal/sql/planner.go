package sql

import (
	"fmt"
	"strconv"
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

// This file is the planning phase of the read path. Planning runs once
// per distinct statement text and produces an immutable *Plan that the
// batch executor (vexec.go) can run any number of times with different
// parameter bindings: index selection is structural (shape of the WHERE
// conjuncts), and every value that can differ between executions —
// placeholder arguments, NOW(), subquery results — stays an Expr in the
// plan, evaluated at execution time. That property is what makes the
// plan cache (plancache.go) sound.

// accessKind classifies how a scan step reads its table.
type accessKind uint8

const (
	accessConst      accessKind = iota // no FROM clause: one empty row
	accessFull                         // full table scan
	accessIndexEq                      // equality probe covering the full index key
	accessIndexRange                   // half-open range on a btree index
)

// scanStep describes how one FROM table is read.
type scanStep struct {
	table  string
	width  int   // column count of the table
	cols   []int // sorted ordinals of the columns the plan reads
	access accessKind
	index  string // index name for accessIndexEq / accessIndexRange
	// eqKey holds one constant-foldable expression per index column
	// (accessIndexEq). Evaluated per execution; an evaluation error
	// falls back to a full scan, mirroring the pre-planner behavior
	// where a non-evaluable bound simply never became an index path.
	eqKey []Expr
	// lo/hi bound an accessIndexRange scan. lo comes from a > or >=
	// conjunct (residual WHERE re-checks strictness); hi only from <
	// (an exclusive upper key for <= cannot be built on arbitrary
	// types). Either may be nil (unbounded).
	lo, hi Expr
}

// joinStep joins the accumulated rows with one more table.
type joinStep struct {
	scan scanStep
	kind JoinKind
	on   Expr
	// hash marks an inner/left equi-join `oldKey = newKey` where one
	// side resolves entirely in the prior bindings and the other in
	// the new table: the executor builds a hash table on the new side.
	hash   bool
	oldKey Expr
	newKey Expr
}

// selectPlan is the compiled form of one SELECT core (one UNION arm, or
// the whole statement when there is no UNION). All name resolution
// happened at plan time: column references are bound to row positions
// (bind.go), positional and select-alias GROUP BY/ORDER BY keys point at
// their select items, stars are expanded, aggregates are collected and
// output column names fixed. Every expression below is a bound copy
// owned by the plan.
type selectPlan struct {
	bindings []binding
	colOff   []int // start offset of each binding in the joined row
	width    int   // total joined-row width
	base     scanStep
	joins    []joinStep
	// live lists, sorted, the joined-row positions the plan reads: the
	// only columns the scans fill and the operators copy.
	live     []int
	where    Expr
	filter   *cmpKernel // where as a typed comparison, or nil
	groupBy  []Expr
	keyCols  []int // batch column of each bare-column GROUP BY key, else -1
	aggs     []aggPlan
	having   Expr
	grouped  bool
	items    []SelectItem // stars expanded
	columns  []string
	orderBy  []Expr
	orderDsc []bool
	distinct bool
	limit    Expr
	offset   Expr
	access   string // Result.Plan back-compat: "const", "scan", "index:<name>"
}

// Plan is the immutable artifact between the planning and execution
// phases. One Plan may be executed concurrently by many statements; it
// holds no run-time state.
type Plan struct {
	arms []*selectPlan
	// unionAll[i] tells whether arm i+1 combines with ALL semantics.
	unionAll []bool
	// orderKeys are resolved output positions for a union-level ORDER
	// BY (desc encoded as -pos-1, matching storage.SortRows).
	orderKeys []int
	limit     Expr // union-level LIMIT/OFFSET
	offset    Expr
	columns   []string
	access    string // "union" for multi-arm plans, else the arm's path
	epoch     uint64 // storage schema epoch the plan was built under
}

// Columns returns a copy of the output column names.
func (p *Plan) Columns() []string { return append([]string(nil), p.columns...) }

// AccessPath returns the short access-path note kept for Result.Plan
// back-compat ("const", "scan", "index:<name>", "union").
func (p *Plan) AccessPath() string { return p.access }

// planSelect compiles a SELECT (possibly a UNION chain) against the
// current schema. outer is the scope of the enclosing statement when sel
// is a subquery, else nil. The schema epoch is captured before any
// schema read so a concurrent DDL can only make the recorded epoch
// stale — never silently current.
func planSelect(db *DB, sel *SelectStmt, outer *scope) (*Plan, error) {
	p := &Plan{epoch: db.Engine.SchemaEpoch()}
	if sel.Union == nil {
		arm, err := planCore(db, sel, outer)
		if err != nil {
			return nil, err
		}
		p.arms = []*selectPlan{arm}
		p.columns = arm.columns
		p.access = arm.access
		return p, nil
	}

	// UNION chain: each core runs without the chain's ORDER BY/LIMIT;
	// those apply to the combined rows, resolved against the first
	// arm's output columns.
	for node := sel; node != nil; node = node.Union {
		core := *node
		core.Union, core.UnionAll = nil, false
		core.OrderBy, core.Limit, core.Offset = nil, nil, nil
		arm, err := planCore(db, &core, outer)
		if err != nil {
			return nil, err
		}
		if len(p.arms) > 0 && len(arm.columns) != len(p.columns) {
			return nil, fmt.Errorf("sql: UNION arms have %d and %d columns",
				len(p.columns), len(arm.columns))
		}
		if len(p.arms) == 0 {
			p.columns = arm.columns
		} else {
			p.unionAll = append(p.unionAll, node.UnionAll)
		}
		p.arms = append(p.arms, arm)
	}
	// The loop above records unionAll for node i when appending arm
	// i+1 — but reads node.UnionAll after the core copy cleared the
	// current node's flag, so recompute from the chain directly.
	p.unionAll = p.unionAll[:0]
	for node := sel; node.Union != nil; node = node.Union {
		p.unionAll = append(p.unionAll, node.UnionAll)
	}
	p.orderKeys = make([]int, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		pos, err := unionOrderPos(oi.Expr, sel.Items, p.columns)
		if err != nil {
			return nil, err
		}
		if oi.Desc {
			p.orderKeys[i] = -pos - 1
		} else {
			p.orderKeys[i] = pos
		}
	}
	var err error
	if p.limit, p.offset, err = bindLimit(db, sel); err != nil {
		return nil, err
	}
	p.access = "union"
	return p, nil
}

// bindLimit binds LIMIT and OFFSET, which admit no column references.
func bindLimit(db *DB, sel *SelectStmt) (limit, offset Expr, err error) {
	if limit, err = bindExpr(db, sel.Limit, nil); err != nil {
		return nil, nil, err
	}
	if offset, err = bindExpr(db, sel.Offset, nil); err != nil {
		return nil, nil, err
	}
	return limit, offset, nil
}

// planCore compiles one SELECT core (no UNION) whose correlated
// references resolve in outer.
func planCore(db *DB, sel *SelectStmt, outer *scope) (*selectPlan, error) {
	sp := &selectPlan{distinct: sel.Distinct}

	if len(sel.From) == 0 {
		sp.base = scanStep{access: accessConst}
		sp.access = "const"
	} else {
		first := sel.From[0]
		schema, err := db.Engine.Schema(first.Table)
		if err != nil {
			return nil, err
		}
		sp.bindings = append(sp.bindings, newBinding(first, schema))
		base, err := planScan(db, first.Table, sp.bindings[0].name, sel.Where, len(schema.Columns))
		if err != nil {
			return nil, err
		}
		sp.base = base
		for _, ref := range sel.From[1:] {
			schema, err := db.Engine.Schema(ref.Table)
			if err != nil {
				return nil, err
			}
			nb := newBinding(ref, schema)
			for _, b := range sp.bindings {
				if b.name == nb.name {
					return nil, fmt.Errorf("sql: duplicate table name or alias %q in FROM", ref.Name())
				}
			}
			js := joinStep{
				scan: scanStep{table: ref.Table, access: accessFull, width: len(schema.Columns)},
				kind: ref.Join,
			}
			oldLeft, hash := false, false
			if ref.Join != JoinCross {
				oldLeft, hash = equiJoinSides(ref.On, sp.bindings, nb)
			}
			sp.bindings = append(sp.bindings, nb)
			// ON sees the tables joined so far, the new one included.
			on, err := bindExpr(db, ref.On, &scope{bindings: sp.bindings, outer: outer})
			if err != nil {
				return nil, err
			}
			js.on = on
			if hash {
				eq := on.(*BinaryExpr)
				js.hash, js.oldKey, js.newKey = true, eq.Left, eq.Right
				if !oldLeft {
					js.oldKey, js.newKey = eq.Right, eq.Left
				}
			}
			sp.joins = append(sp.joins, js)
		}
		if sp.base.access == accessFull {
			sp.access = "scan"
		} else {
			sp.access = "index:" + sp.base.index
		}
	}

	sp.colOff = make([]int, len(sp.bindings))
	w := 0
	for i, b := range sp.bindings {
		sp.colOff[i] = w
		w += len(b.cols)
	}
	sp.width = w

	sc := &scope{bindings: sp.bindings, outer: outer}
	// The select list binds first: positional and alias keys in GROUP
	// BY and ORDER BY reuse its bound expressions.
	selBound := make([]Expr, len(sel.Items))
	for i, item := range sel.Items {
		if item.Star {
			continue
		}
		e, err := bindExpr(db, item.Expr, sc)
		if err != nil {
			return nil, err
		}
		selBound[i] = e
	}
	items, err := expandStars(sel.Items, selBound, sp.bindings)
	if err != nil {
		return nil, err
	}
	sp.items = items
	sp.columns = outputColumns(items)
	if sp.where, err = bindExpr(db, sel.Where, sc); err != nil {
		return nil, err
	}
	if sp.groupBy, err = bindKeys(db, sel.GroupBy, sel.Items, selBound, sc); err != nil {
		return nil, err
	}
	orderExprs := make([]Expr, len(sel.OrderBy))
	sp.orderDsc = make([]bool, len(sel.OrderBy))
	for i, oi := range sel.OrderBy {
		orderExprs[i], sp.orderDsc[i] = oi.Expr, oi.Desc
	}
	if sp.orderBy, err = bindKeys(db, orderExprs, sel.Items, selBound, sc); err != nil {
		return nil, err
	}

	var aggNodes []*FuncCall
	for _, item := range items {
		aggNodes = collectAggregates(item.Expr, aggNodes)
	}
	for _, e := range sp.orderBy {
		aggNodes = collectAggregates(e, aggNodes)
	}
	if sel.Having != nil && len(sp.groupBy) == 0 && len(aggNodes) == 0 && collectAggregates(sel.Having, nil) == nil {
		return nil, fmt.Errorf("sql: HAVING requires GROUP BY or aggregates")
	}
	if sp.having, err = bindExpr(db, sel.Having, sc); err != nil {
		return nil, err
	}
	aggNodes = collectAggregates(sp.having, aggNodes)
	sp.grouped = len(sp.groupBy) > 0 || len(aggNodes) > 0
	if sp.limit, sp.offset, err = bindLimit(db, sel); err != nil {
		return nil, err
	}

	// Every expression is bound, subqueries included, so the read marks
	// are final: turn them into the scans' column lists and pick the
	// kernels.
	for i, b := range sp.bindings {
		cols := b.readCols()
		if i == 0 {
			sp.base.cols = cols
		} else {
			sp.joins[i-1].scan.cols = cols
		}
		for _, ord := range cols {
			sp.live = append(sp.live, sp.colOff[i]+ord)
		}
	}
	sp.filter = planFilter(sp.where, sp.colOff)
	sp.keyCols = make([]int, len(sp.groupBy))
	for i, e := range sp.groupBy {
		sp.keyCols[i] = batchCol(e, sp.colOff)
	}
	sp.aggs = make([]aggPlan, len(aggNodes))
	for i, node := range aggNodes {
		if sp.aggs[i], err = planAggregate(node, sp.colOff); err != nil {
			return nil, err
		}
	}
	return sp, nil
}

// newBinding is the FROM binding of ref, with no column read yet.
func newBinding(ref TableRef, schema *storage.Schema) binding {
	return binding{name: strings.ToLower(ref.Name()), cols: lowerCols(schema), read: make([]bool, len(schema.Columns))}
}

// bindKeys binds GROUP BY or ORDER BY keys. A 1-based integer literal
// or a bare name matching a select alias stands for that select item
// and reuses its bound expression (GROUP BY 1, ORDER BY total); any
// other key binds in sc.
func bindKeys(db *DB, keys []Expr, items []SelectItem, selBound []Expr, sc *scope) ([]Expr, error) {
	out := make([]Expr, len(keys))
	for i, e := range keys {
		k, err := selectItemRef(e, items)
		if err != nil {
			return nil, err
		}
		if k >= 0 {
			out[i] = selBound[k]
			continue
		}
		if out[i], err = bindExpr(db, e, sc); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// selectItemRef reports which select item a GROUP BY or ORDER BY key
// names by position or alias, or -1 when it names none.
func selectItemRef(e Expr, items []SelectItem) (int, error) {
	switch x := e.(type) {
	case *Literal:
		if n, ok := x.Val.(int64); ok {
			if n < 1 || int(n) > len(items) {
				return -1, fmt.Errorf("sql: position %d is not in the select list", n)
			}
			if items[n-1].Star {
				return -1, fmt.Errorf("sql: cannot reference * by position")
			}
			return int(n - 1), nil
		}
	case *ColumnRef:
		if x.Table != "" {
			break
		}
		for i, item := range items {
			if item.Alias != "" && !item.Star && strings.EqualFold(item.Alias, x.Column) {
				return i, nil
			}
		}
	}
	return -1, nil
}

// planScan picks the access path for the first FROM table from the
// structural shape of the WHERE conjuncts: an equality probe when
// bounds cover a full index key, else a half-open range on a btree
// index, else a full scan. The bound values stay expressions.
func planScan(db *DB, table, bindName string, where Expr, width int) (scanStep, error) {
	step := scanStep{table: table, width: width, access: accessFull}
	if where == nil || db.DisableIndexes {
		return step, nil
	}
	bounds := collectExprBounds(where, bindName)
	if len(bounds) == 0 {
		return step, nil
	}
	infos, err := db.Engine.Indexes(table)
	if err != nil {
		return scanStep{}, err
	}

	// Prefer an equality probe on the full index key; fall back to a
	// range scan on a btree index's leading column.
	for _, info := range infos {
		key := make([]Expr, 0, len(info.Columns))
		for _, col := range info.Columns {
			found := false
			for _, b := range bounds {
				if b.op == "=" && strings.EqualFold(b.column, col) {
					key = append(key, b.value)
					found = true
					break
				}
			}
			if !found {
				break
			}
		}
		if len(key) != len(info.Columns) {
			continue
		}
		step.access = accessIndexEq
		step.index = info.Name
		step.eqKey = key
		return step, nil
	}

	for _, info := range infos {
		if info.Kind != storage.IndexBTree || len(info.Columns) == 0 {
			continue
		}
		col := info.Columns[0]
		var lo, hi Expr
		matched := false
		for _, b := range bounds {
			if !strings.EqualFold(b.column, col) {
				continue
			}
			switch b.op {
			case ">", ">=":
				// Half-open scan from the bound; residual WHERE
				// evaluation re-checks strictness for ">".
				if lo == nil {
					lo = b.value
					matched = true
				}
			case "<":
				// For <= we cannot build an exclusive upper key on
				// arbitrary types, so only < becomes the limit.
				if hi == nil {
					hi = b.value
					matched = true
				}
			}
		}
		if !matched {
			continue
		}
		step.access = accessIndexRange
		step.index = info.Name
		step.lo, step.hi = lo, hi
		return step, nil
	}
	return step, nil
}

// exprBound is one sargable predicate on a column of the target table:
// <col> <op> <constant-foldable expr>.
type exprBound struct {
	column string
	op     string // = < <= > >=
	value  Expr
}

// collectExprBounds walks the top-level AND conjuncts of where,
// gathering sargable predicates on bindName's columns whose other side
// contains no column reference. Acceptance is purely structural — the
// expressions are evaluated at execution time.
func collectExprBounds(where Expr, bindName string) []exprBound {
	var bounds []exprBound
	var walk func(e Expr)
	walk = func(e Expr) {
		b, ok := e.(*BinaryExpr)
		if !ok {
			return
		}
		if b.Op == "AND" {
			walk(b.Left)
			walk(b.Right)
			return
		}
		switch b.Op {
		case "=", "<", "<=", ">", ">=":
		default:
			return
		}
		tryAdd := func(colSide, constSide Expr, op string) {
			cr, ok := colSide.(*ColumnRef)
			if !ok {
				return
			}
			if cr.Table != "" && !strings.EqualFold(cr.Table, bindName) {
				return
			}
			if hasColumnRef(constSide) {
				return
			}
			bounds = append(bounds, exprBound{column: cr.Column, op: op, value: constSide})
		}
		tryAdd(b.Left, b.Right, b.Op)
		tryAdd(b.Right, b.Left, flipOp(b.Op))
	}
	walk(where)
	return bounds
}

func flipOp(op string) string {
	switch op {
	case "<":
		return ">"
	case "<=":
		return ">="
	case ">":
		return "<"
	case ">=":
		return "<="
	default:
		return op
	}
}

func hasColumnRef(e Expr) bool {
	switch x := e.(type) {
	case nil:
		return false
	case *ColumnRef:
		return true
	case *BinaryExpr:
		return hasColumnRef(x.Left) || hasColumnRef(x.Right)
	case *UnaryExpr:
		return hasColumnRef(x.X)
	case *FuncCall:
		for _, a := range x.Args {
			if hasColumnRef(a) {
				return true
			}
		}
		return false
	case *CastExpr:
		return hasColumnRef(x.X)
	case *Literal, *Param:
		return false
	default:
		// Conservative: subqueries, CASE, IN etc. are not treated as
		// constants.
		return true
	}
}

// equiJoinSides reports whether on is `X = Y` with one side referencing
// only old bindings and the other only the new one. oldLeft tells
// whether the old side is the left operand.
func equiJoinSides(on Expr, oldBindings []binding, newB binding) (oldLeft, ok bool) {
	b, isBin := on.(*BinaryExpr)
	if !isBin || b.Op != "=" {
		return false, false
	}
	oldNames := map[string]bool{}
	oldCols := map[string]int{}
	for _, ob := range oldBindings {
		oldNames[ob.name] = true
		for _, c := range ob.cols {
			oldCols[c]++
		}
	}
	newCols := map[string]bool{}
	for _, c := range newB.cols {
		newCols[c] = true
	}
	side := func(e Expr) (onlyOld, onlyNew, valid bool) {
		onlyOld, onlyNew, valid = true, true, true
		var walk func(Expr)
		walk = func(e Expr) {
			if !valid {
				return
			}
			switch x := e.(type) {
			case *ColumnRef:
				col := strings.ToLower(x.Column)
				tbl := strings.ToLower(x.Table)
				switch {
				case tbl == newB.name:
					onlyOld = false
				case tbl != "" && oldNames[tbl]:
					onlyNew = false
				case tbl == "":
					inOld := oldCols[col] > 0
					inNew := newCols[col]
					switch {
					case inOld && inNew:
						valid = false // ambiguous, fall back to nested loop
					case inOld:
						onlyNew = false
					case inNew:
						onlyOld = false
					default:
						valid = false
					}
				default:
					valid = false
				}
			case *BinaryExpr:
				walk(x.Left)
				walk(x.Right)
			case *UnaryExpr:
				walk(x.X)
			case *FuncCall:
				for _, a := range x.Args {
					walk(a)
				}
			case *CastExpr:
				walk(x.X)
			case *Literal, *Param:
			default:
				valid = false
			}
		}
		walk(e)
		return
	}
	lOld, lNew, lValid := side(b.Left)
	rOld, rNew, rValid := side(b.Right)
	if !lValid || !rValid {
		return false, false
	}
	switch {
	case lOld && rNew:
		return true, true
	case lNew && rOld:
		return false, true
	}
	return false, false
}

// --- EXPLAIN rendering ---

// Explain renders the plan tree, one operator per line, children
// indented under their consumer. This is what EXPLAIN <select> returns.
func (p *Plan) Explain() []string {
	out := make([]string, 0, 8*len(p.arms))
	if len(p.arms) == 1 {
		return p.arms[0].explain(out, 0)
	}
	out = append(out, indentLine(0, topUnionLabel(p)))
	for i, arm := range p.arms {
		out = append(out, indentLine(1, unionArmLabel(i, i > 0 && p.unionAll[i-1])))
		out = arm.explain(out, 2)
	}
	return out
}

func unionArmLabel(i int, all bool) string {
	label := "arm " + strconv.Itoa(i+1)
	if all {
		label += " (all)"
	}
	return label
}

func topUnionLabel(p *Plan) string {
	var sb strings.Builder
	sb.WriteString("union")
	if len(p.orderKeys) > 0 {
		sb.WriteString(" order")
	}
	if p.limit != nil {
		sb.WriteString(" limit " + p.limit.String())
	}
	if p.offset != nil {
		sb.WriteString(" offset " + p.offset.String())
	}
	return sb.String()
}

func (sp *selectPlan) explain(out []string, depth int) []string {
	if sp.limit != nil || sp.offset != nil {
		line := "limit"
		if sp.limit != nil {
			line += " " + sp.limit.String()
		}
		if sp.offset != nil {
			line += " offset " + sp.offset.String()
		}
		out = append(out, indentLine(depth, line))
		depth++
	}
	if len(sp.orderBy) > 0 {
		keys := make([]string, len(sp.orderBy))
		for i, e := range sp.orderBy {
			keys[i] = orderKeyLabel(e, sp.orderDsc[i])
		}
		out = append(out, indentLine(depth, "sort "+strings.Join(keys, ", ")))
		depth++
	}
	if sp.distinct {
		out = append(out, indentLine(depth, "distinct"))
		depth++
	}
	out = append(out, indentLine(depth, "project "+strings.Join(sp.columns, ", ")))
	depth++
	if sp.grouped {
		line := "group"
		if len(sp.groupBy) > 0 {
			keys := make([]string, len(sp.groupBy))
			for i, e := range sp.groupBy {
				keys[i] = e.String()
			}
			line += " by " + strings.Join(keys, ", ")
		}
		line += fmt.Sprintf(" (%d aggregates)", len(sp.aggs))
		if sp.having != nil {
			line += " having " + sp.having.String()
		}
		out = append(out, indentLine(depth, line))
		depth++
	}
	if sp.where != nil {
		out = append(out, indentLine(depth, "filter "+sp.where.String()))
		depth++
	}
	// Joins consume left-deep: render the last join first, its left
	// input below, ending at the base scan.
	for i := len(sp.joins) - 1; i >= 0; i-- {
		js := sp.joins[i]
		out = append(out, indentLine(depth, js.label()))
		depth++
		out = append(out, indentLine(depth, js.scan.describe(sp.bindingName(i+1))))
	}
	out = append(out, indentLine(depth, sp.base.describe(sp.bindingName(0))))
	return out
}

func orderKeyLabel(e Expr, desc bool) string {
	if desc {
		return e.String() + " DESC"
	}
	return e.String()
}

func (js joinStep) label() string {
	if js.kind == JoinCross {
		if js.on != nil {
			return "cross join on " + js.on.String()
		}
		return "cross join"
	}
	kind := "inner"
	if js.kind == JoinLeft {
		kind = "left"
	}
	algo := "nested-loop"
	if js.hash {
		algo = "hash"
	}
	line := algo + " join (" + kind + ")"
	if js.on != nil {
		line += " on " + js.on.String()
	}
	return line
}

func (sp *selectPlan) bindingName(i int) string {
	if i < len(sp.bindings) {
		return sp.bindings[i].name
	}
	return ""
}

func (s scanStep) describe(bind string) string {
	switch s.access {
	case accessConst:
		return "const (no FROM)"
	case accessIndexEq:
		keys := make([]string, len(s.eqKey))
		for i, e := range s.eqKey {
			keys[i] = e.String()
		}
		return fmt.Sprintf("index-scan %s using %s (key = %s)%s",
			s.table, s.index, strings.Join(keys, ", "), asNote(s.table, bind))
	case accessIndexRange:
		lo, hi := "-inf", "+inf"
		if s.lo != nil {
			lo = s.lo.String()
		}
		if s.hi != nil {
			hi = s.hi.String()
		}
		return fmt.Sprintf("index-scan %s using %s (range [%s, %s))%s",
			s.table, s.index, lo, hi, asNote(s.table, bind))
	default:
		return "scan " + s.table + asNote(s.table, bind)
	}
}

func asNote(table, bind string) string {
	if bind == "" || strings.EqualFold(table, bind) {
		return ""
	}
	return " as " + bind
}

func indentLine(depth int, s string) string {
	if depth == 0 {
		return s
	}
	return strings.Repeat("  ", depth) + s
}
