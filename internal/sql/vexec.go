package sql

import (
	"errors"
	"fmt"
	"sort"

	"github.com/odbis/odbis/internal/storage"
)

// This file is the execution phase of the read path. It runs a compiled
// *Plan (planner.go) batch-at-a-time: operators pull column-major
// storage.Batch blocks from each other instead of materializing one
// []Row slice per operator, and expression evaluation binds directly to
// the batch's column slices through a reused rowView — no per-row
// environment allocation. The cooperative-cancellation cadence is
// unchanged: executor.step() still runs once per row.

// execBatchRows is the target row count per batch. Joins may overshoot
// when one probe row matches many build rows; batches grow as needed.
const execBatchRows = 256

// rowView adapts the batch world to the expression evaluator: it owns
// one rowEnv whose bindings point either at batch columns (read at the
// env's row cursor) or at a row-major storage.Row, plus one evalCtx.
// Operators reposition the view instead of allocating envs per row.
type rowView struct {
	env    rowEnv
	ec     evalCtx
	colOff []int
}

func (ex *executor) newRowView(bindings []binding, colOff []int, outer *rowEnv, params []storage.Value) *rowView {
	v := &rowView{colOff: colOff}
	v.env.outer = outer
	v.env.tables = make([]boundTable, len(bindings))
	for i, b := range bindings {
		v.env.tables[i].width = len(b.cols)
	}
	v.ec = evalCtx{row: &v.env, params: params, exec: ex, now: ex.now}
	return v
}

// bindBatch points the first n bindings at b's columns (laid out at
// colOff). The view then reads row v.env.cur of the batch.
func (v *rowView) bindBatch(b *storage.Batch, n int) {
	for i := 0; i < n; i++ {
		bt := &v.env.tables[i]
		bt.bcols = b.Cols[v.colOff[i] : v.colOff[i]+bt.width]
		bt.vals = nil
	}
}

// setRow puts binding i into row-major mode over vals. A nil vals reads
// every column as NULL (null-extended LEFT side, empty group).
func (v *rowView) setRow(i int, vals storage.Row) {
	bt := &v.env.tables[i]
	bt.bcols = nil
	bt.vals = vals
}

// bindFlat points every binding at its slice of one flattened joined
// row (a group representative). A nil row reads as all-NULL.
func (v *rowView) bindFlat(row storage.Row) {
	for i := range v.env.tables {
		if row == nil {
			v.setRow(i, nil)
			continue
		}
		off := v.colOff[i]
		v.setRow(i, row[off:off+v.env.tables[i].width])
	}
}

// cursor is a pull-based batch operator. next returns nil at end of
// input; the returned batch is owned by the cursor and valid until the
// following next or close call.
type cursor interface {
	next() (*storage.Batch, error)
	close()
}

// constCursor emits the single empty row of a FROM-less SELECT.
type constCursor struct {
	ex   *executor
	out  *storage.Batch
	done bool
}

func (c *constCursor) next() (*storage.Batch, error) {
	if c.done {
		return nil, nil
	}
	c.done = true
	c.out = c.ex.pool.Get(0)
	c.out.SetLen(1)
	return c.out, nil
}

func (c *constCursor) close() {
	c.ex.pool.Put(c.out)
	c.out = nil
}

// scanCursor reads the base table, filling only the columns the plan
// reads. Full scans stream through a storage.BatchScanner; index paths
// evaluate the planned key expressions once per execution and
// materialize the matching rows up front (index lookups are snapshot
// reads, same as the row executor did). A key expression that fails to
// evaluate degrades to a full scan — mirroring the pre-planner behavior
// where a non-evaluable bound never became an index path in the first
// place.
type scanCursor struct {
	ex     *executor
	step   *scanStep
	params []storage.Value

	opened bool
	out    *storage.Batch
	sc     *storage.BatchScanner // full-scan mode
	rows   []storage.Row         // index mode
	pos    int
}

func (c *scanCursor) open() error {
	c.out = c.ex.pool.Get(c.step.width)
	access := c.step.access
	var key []storage.Value
	var lo, hi []storage.Value
	if access == accessIndexEq || access == accessIndexRange {
		ec := &evalCtx{params: c.params, now: c.ex.now}
		ok := true
		eval1 := func(e Expr) storage.Value {
			if !ok || e == nil {
				return nil
			}
			v, err := ec.eval(e)
			if err != nil {
				ok = false
				return nil
			}
			return v
		}
		switch access {
		case accessIndexEq:
			key = make([]storage.Value, len(c.step.eqKey))
			for i, e := range c.step.eqKey {
				key[i] = eval1(e)
			}
		case accessIndexRange:
			if c.step.lo != nil {
				if v := eval1(c.step.lo); ok {
					lo = []storage.Value{v}
				}
			}
			if c.step.hi != nil {
				if v := eval1(c.step.hi); ok {
					hi = []storage.Value{v}
				}
			}
		}
		if !ok {
			access = accessFull
		}
	}
	collect := func(rid storage.RID, row storage.Row) bool {
		c.rows = append(c.rows, row)
		return true
	}
	if access == accessIndexEq || access == accessIndexRange {
		var err error
		if access == accessIndexEq {
			err = c.ex.tx.LookupEqual(c.step.table, c.step.index, key, collect)
		} else {
			err = c.ex.tx.ScanRange(c.step.table, c.step.index, lo, hi, collect)
		}
		// A DROP INDEX that lands between planning and this probe leaves
		// the plan naming a missing index. The full scan below gives the
		// same answer because the residual WHERE re-checks every row.
		if !errors.Is(err, storage.ErrNoIndex) {
			return err
		}
	}
	sc, err := c.ex.tx.NewBatchScanner(c.step.table, c.step.cols)
	if err != nil {
		return err
	}
	c.sc = sc
	return nil
}

func (c *scanCursor) next() (*storage.Batch, error) {
	if !c.opened {
		c.opened = true
		if err := c.open(); err != nil {
			return nil, err
		}
	}
	if c.sc != nil {
		n, err := c.sc.Next(c.out, execBatchRows)
		if err != nil {
			return nil, err
		}
		if n == 0 {
			return nil, nil
		}
		return c.out, nil
	}
	if c.pos >= len(c.rows) {
		return nil, nil
	}
	c.out.Reset(c.step.width)
	for c.pos < len(c.rows) && c.out.Len() < execBatchRows {
		c.out.PushRow(c.rows[c.pos], c.step.cols)
		c.pos++
	}
	return c.out, nil
}

func (c *scanCursor) close() {
	c.ex.pool.Put(c.out)
	c.out = nil
}

// joinCursor joins the left input with one more table. Hash joins
// build a map over the new table keyed by the planned equi-key; other
// joins nest-loop over the materialized right rows. Output batches
// carry the widened row: left columns then the new table's, of which
// only the columns the plan reads are filled.
type joinCursor struct {
	ex     *executor
	left   cursor
	js     *joinStep
	sp     *selectPlan
	lidx   int   // index of the new binding; left is bindings[:lidx]
	lw     int   // left row width
	llive  []int // left positions the plan reads
	params []storage.Value
	outer  *rowEnv

	opened bool
	out    *storage.Batch
	rights []storage.Row
	table  map[string][]int // hash mode: EncodeKey(newKey) -> rights indexes
	kbuf   []byte           // hash mode: probe key scratch

	lview  *rowView // left-prefix view (hash probe key)
	onview *rowView // full view incl. the new table (nested ON)

	lb   *storage.Batch
	lpos int
}

func (c *joinCursor) open() error {
	c.out = c.ex.pool.Get(c.lw + c.js.scan.width)
	err := c.ex.tx.Scan(c.js.scan.table, func(rid storage.RID, row storage.Row) bool {
		c.rights = append(c.rights, row)
		return true
	})
	if err != nil {
		return err
	}
	if c.js.hash {
		c.lview = c.ex.newRowView(c.sp.bindings[:c.lidx], c.sp.colOff[:c.lidx], c.outer, c.params)
		c.table = make(map[string][]int, len(c.rights))
		// newKey references the new table only; its bindings sit at
		// their plan positions, so the view spans the prefix.
		rview := c.ex.newRowView(c.sp.bindings[:c.lidx+1], c.sp.colOff[:c.lidx+1], nil, c.params)
		for i, rr := range c.rights {
			if err := c.ex.step(); err != nil {
				return err
			}
			rview.setRow(c.lidx, rr)
			kv, err := rview.ec.eval(c.js.newKey)
			if err != nil {
				return err
			}
			if kv == nil {
				continue // NULL keys never join
			}
			c.kbuf = storage.AppendKey(c.kbuf[:0], kv)
			c.table[string(c.kbuf)] = append(c.table[string(c.kbuf)], i)
		}
	} else {
		c.onview = c.ex.newRowView(c.sp.bindings[:c.lidx+1], c.sp.colOff[:c.lidx+1], c.outer, c.params)
	}
	return nil
}

func (c *joinCursor) next() (*storage.Batch, error) {
	if !c.opened {
		c.opened = true
		if err := c.open(); err != nil {
			return nil, err
		}
	}
	c.out.Reset(c.lw + c.js.scan.width)
	for c.out.Len() < execBatchRows {
		if c.lb == nil || c.lpos >= c.lb.Len() {
			lb, err := c.left.next()
			if err != nil {
				return nil, err
			}
			if lb == nil {
				if c.out.Len() == 0 {
					return nil, nil
				}
				return c.out, nil
			}
			c.lb = lb
			c.lpos = 0
			if c.lview != nil {
				c.lview.bindBatch(lb, c.lidx)
			}
			if c.onview != nil {
				c.onview.bindBatch(lb, c.lidx)
			}
			continue
		}
		r := c.lpos
		c.lpos++
		if c.js.hash {
			if err := c.ex.step(); err != nil {
				return nil, err
			}
			c.lview.env.cur = r
			kv, err := c.lview.ec.eval(c.js.oldKey)
			if err != nil {
				return nil, err
			}
			matched := false
			if kv != nil {
				c.kbuf = storage.AppendKey(c.kbuf[:0], kv)
				for _, ri := range c.table[string(c.kbuf)] {
					c.emit(r, c.rights[ri])
					matched = true
				}
			}
			if !matched && c.js.kind == JoinLeft {
				c.emit(r, nil)
			}
			continue
		}
		// Nested loop (and CROSS, whose nil ON matches every pair).
		c.onview.env.cur = r
		matched := false
		for _, rr := range c.rights {
			if err := c.ex.step(); err != nil {
				return nil, err
			}
			if c.js.on != nil {
				c.onview.setRow(c.lidx, rr)
				ok, err := c.onview.ec.evalBool(c.js.on)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			c.emit(r, rr)
			matched = true
		}
		if !matched && c.js.kind == JoinLeft {
			c.emit(r, nil)
		}
	}
	return c.out, nil
}

// emit appends the read columns of left row r of the current left
// batch, widened with right (nil = null-extended), to the output batch.
func (c *joinCursor) emit(r int, right storage.Row) {
	out := c.out
	for _, col := range c.llive {
		out.Cols[col] = append(out.Cols[col], c.lb.Cols[col][r])
	}
	for _, col := range c.js.scan.cols {
		var v storage.Value
		if right != nil {
			v = right[col]
		}
		out.Cols[c.lw+col] = append(out.Cols[c.lw+col], v)
	}
	out.SetLen(out.Len() + 1)
}

func (c *joinCursor) close() {
	c.left.close()
	c.ex.pool.Put(c.out)
	c.out = nil
}

// filterCursor applies the WHERE predicate, compacting each batch in
// place — surviving rows shift down and the batch length shrinks. A
// predicate the planner resolved to a comparison kernel is tested in a
// typed loop; rows the kernel does not handle go through evalBool.
type filterCursor struct {
	ex    *executor
	src   cursor
	where Expr
	view  *rowView
	n     int   // binding count
	live  []int // the positions compaction moves
	// kernel, when set, tests where against this execution's operand
	// kval.
	kernel *cmpKernel
	kval   int64
}

func (c *filterCursor) next() (*storage.Batch, error) {
	for {
		b, err := c.src.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			return nil, nil
		}
		c.view.bindBatch(b, c.n)
		var kcol []storage.Value
		if c.kernel != nil {
			kcol = b.Cols[c.kernel.col]
		}
		w := 0
		for r := 0; r < b.Len(); r++ {
			if err := c.ex.step(); err != nil {
				return nil, err
			}
			ok, handled := false, false
			if kcol != nil {
				ok, handled = c.kernel.test(kcol[r], c.kval)
			}
			if !handled {
				c.view.env.cur = r
				if ok, err = c.view.ec.evalBool(c.where); err != nil {
					return nil, err
				}
			}
			if !ok {
				continue
			}
			if w != r {
				for _, col := range c.live {
					b.Cols[col][w] = b.Cols[col][r]
				}
			}
			w++
		}
		if w > 0 {
			b.SetLen(w)
			return b, nil
		}
	}
}

func (c *filterCursor) close() { c.src.close() }

// buildPipeline assembles the operator tree for one plan arm:
// scan → joins → filter.
func (ex *executor) buildPipeline(sp *selectPlan, params []storage.Value, outer *rowEnv) cursor {
	var cur cursor
	if sp.base.access == accessConst {
		cur = &constCursor{ex: ex}
	} else {
		cur = &scanCursor{ex: ex, step: &sp.base, params: params}
	}
	for i := range sp.joins {
		cur = &joinCursor{
			ex:     ex,
			left:   cur,
			js:     &sp.joins[i],
			sp:     sp,
			lidx:   i + 1,
			lw:     sp.colOff[i+1],
			llive:  sp.live[:sort.SearchInts(sp.live, sp.colOff[i+1])],
			params: params,
			outer:  outer,
		}
	}
	if sp.where != nil {
		fc := &filterCursor{
			ex:    ex,
			src:   cur,
			where: sp.where,
			view:  ex.newRowView(sp.bindings, sp.colOff, outer, params),
			n:     len(sp.bindings),
			live:  sp.live,
		}
		if sp.filter != nil {
			if x, ok := sp.filter.operandInt(&fc.view.ec); ok {
				fc.kernel, fc.kval = sp.filter, x
			}
		}
		cur = fc
	}
	return cur
}

// execPlan runs a compiled plan: one core, or a UNION chain combined
// left to right with the union-level ORDER BY/LIMIT applied last.
func (ex *executor) execPlan(p *Plan, params []storage.Value, outer *rowEnv) (*Result, error) {
	if len(p.arms) == 1 {
		return ex.execCore(p.arms[0], params, outer)
	}
	first, err := ex.execCore(p.arms[0], params, outer)
	if err != nil {
		return nil, err
	}
	acc := first.Rows
	self := func(row storage.Row) storage.Row { return row }
	for i := 1; i < len(p.arms); i++ {
		right, err := ex.execCore(p.arms[i], params, outer)
		if err != nil {
			return nil, err
		}
		acc = append(acc, right.Rows...)
		if !p.unionAll[i-1] {
			acc = dedupRows(acc, self)
		}
	}
	if len(p.orderKeys) > 0 {
		storage.SortRows(acc, p.orderKeys)
	}
	if p.limit != nil || p.offset != nil {
		lim, off, err := ex.evalLimitOffset(p.limit, p.offset, params)
		if err != nil {
			return nil, err
		}
		if off > len(acc) {
			off = len(acc)
		}
		acc = acc[off:]
		if lim >= 0 && lim < len(acc) {
			acc = acc[:lim]
		}
	}
	return &Result{Columns: p.columns, Rows: acc, Plan: p.access}, nil
}

// execCore runs one plan arm end to end: pipeline, optional grouping,
// projection, DISTINCT, ORDER BY, LIMIT.
func (ex *executor) execCore(sp *selectPlan, params []storage.Value, outer *rowEnv) (*Result, error) {
	cur := ex.buildPipeline(sp, params, outer)
	defer cur.close()

	view := ex.newRowView(sp.bindings, sp.colOff, outer, params)

	type outRow struct {
		vals storage.Row
		keys storage.Row // ORDER BY sort keys
	}
	var outs []outRow

	project := func(ec *evalCtx) error {
		vals := make(storage.Row, len(sp.items))
		for i, item := range sp.items {
			v, err := ec.eval(item.Expr)
			if err != nil {
				return err
			}
			vals[i] = v
		}
		var keys storage.Row
		if len(sp.orderBy) > 0 {
			keys = make(storage.Row, len(sp.orderBy))
			for i, oe := range sp.orderBy {
				v, err := ec.eval(oe)
				if err != nil {
					return err
				}
				keys[i] = v
			}
		}
		outs = append(outs, outRow{vals: vals, keys: keys})
		return nil
	}

	if sp.grouped {
		groups, err := ex.groupBatches(cur, sp, view)
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			if err := ex.step(); err != nil {
				return nil, err
			}
			view.bindFlat(g.rep)
			view.ec.aggs = g.aggs
			if sp.having != nil {
				ok, err := view.ec.evalBool(sp.having)
				if err != nil {
					return nil, err
				}
				if !ok {
					continue
				}
			}
			if err := project(&view.ec); err != nil {
				return nil, err
			}
		}
	} else {
		for {
			b, err := cur.next()
			if err != nil {
				return nil, err
			}
			if b == nil {
				break
			}
			view.bindBatch(b, len(sp.bindings))
			for r := 0; r < b.Len(); r++ {
				if err := ex.step(); err != nil {
					return nil, err
				}
				view.env.cur = r
				if err := project(&view.ec); err != nil {
					return nil, err
				}
			}
		}
	}

	if sp.distinct {
		outs = dedupRows(outs, func(o outRow) storage.Row { return o.vals })
	}

	// ORDER BY. Sorting is not interruptible mid-comparison, so the
	// checkpoint runs once before the sort starts.
	if len(sp.orderBy) > 0 {
		if ex.ctx != nil {
			if err := ex.ctx.Err(); err != nil {
				return nil, err
			}
		}
		sort.SliceStable(outs, func(i, j int) bool {
			for k := range sp.orderBy {
				c := storage.Compare(outs[i].keys[k], outs[j].keys[k])
				if c == 0 {
					continue
				}
				if sp.orderDsc[k] {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}

	// LIMIT / OFFSET.
	if sp.limit != nil || sp.offset != nil {
		lim, off, err := ex.evalLimitOffset(sp.limit, sp.offset, params)
		if err != nil {
			return nil, err
		}
		if off > len(outs) {
			off = len(outs)
		}
		outs = outs[off:]
		if lim >= 0 && lim < len(outs) {
			outs = outs[:lim]
		}
	}

	res := &Result{Columns: sp.columns, Plan: sp.access}
	res.Rows = make([]storage.Row, len(outs))
	for i, o := range outs {
		res.Rows[i] = o.vals
	}
	return res, nil
}

// vgroup accumulates one GROUP BY bucket: the flattened representative
// row (nil for the synthetic empty group of an aggregate over zero
// rows) and the finished aggregate values.
type vgroup struct {
	rep  storage.Row
	aggs map[*FuncCall]storage.Value
}

// groupBatches drains cur into groups. Per batch it assigns every row
// a group id, then runs each aggregate's kernel over the whole batch.
func (ex *executor) groupBatches(cur cursor, sp *selectPlan, view *rowView) ([]*vgroup, error) {
	ks := newKernelScratch()
	table := groupTable{byStr: map[string]int32{}, byKey: map[string]int32{}}
	keyVals := make([]storage.Value, len(sp.groupBy))
	// reps[g] and states[i][g] belong to group g.
	var reps []storage.Row
	states := make([][]aggState, len(sp.aggs))
	newGroup := func(rep storage.Row) {
		reps = append(reps, rep)
		for i := range states {
			states[i] = append(states[i], aggState{})
		}
	}

	for {
		b, err := cur.next()
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		view.bindBatch(b, len(sp.bindings))
		ks.gids = ks.gids[:0]
		for r := 0; r < b.Len(); r++ {
			if err := ex.step(); err != nil {
				return nil, err
			}
			for k, ge := range sp.groupBy {
				if col := sp.keyCols[k]; col >= 0 {
					keyVals[k] = b.Cols[col][r]
					continue
				}
				view.env.cur = r
				if keyVals[k], err = view.ec.eval(ge); err != nil {
					return nil, err
				}
			}
			// Without GROUP BY every row falls in group 0.
			id, isNew := int32(0), len(reps) == 0
			if len(keyVals) > 0 {
				id, isNew = table.id(keyVals)
			}
			if isNew {
				newGroup(flattenRow(b, r, sp.width, sp.live))
			}
			ks.gids = append(ks.gids, id)
		}
		for i := range sp.aggs {
			a := &sp.aggs[i]
			vals, err := a.argValues(b, view, ks)
			if err != nil {
				return nil, err
			}
			if err := a.accumulate(states[i], ks.gids, vals, ks); err != nil {
				return nil, err
			}
		}
	}

	// With no GROUP BY, aggregates over zero rows still yield one group.
	if len(sp.groupBy) == 0 && len(reps) == 0 {
		newGroup(nil)
	}

	groups := make([]*vgroup, len(reps))
	for g, rep := range reps {
		vg := &vgroup{rep: rep, aggs: make(map[*FuncCall]storage.Value, len(sp.aggs))}
		for i := range sp.aggs {
			v, err := sp.aggs[i].finish(&states[i][g])
			if err != nil {
				return nil, err
			}
			vg.aggs[sp.aggs[i].node] = v
		}
		groups[g] = vg
	}
	return groups, nil
}

// dedupRows keeps the first of each run of items whose key rows encode
// equally (DISTINCT, UNION), compacting items in place.
func dedupRows[T any](items []T, keyOf func(T) storage.Row) []T {
	seen := make(map[string]bool, len(items))
	var key []byte
	out := items[:0]
	for _, it := range items {
		key = storage.AppendKey(key[:0], keyOf(it)...)
		if seen[string(key)] {
			continue
		}
		seen[string(key)] = true
		out = append(out, it)
	}
	return out
}

// flattenRow copies the live columns of row r of b into a fresh
// row-major Row of the given width; the other columns stay NULL.
func flattenRow(b *storage.Batch, r, width int, live []int) storage.Row {
	row := make(storage.Row, width)
	for _, c := range live {
		row[c] = b.Cols[c][r]
	}
	return row
}

// evalLimitOffset evaluates LIMIT/OFFSET expressions (lim -1 = none).
func (ex *executor) evalLimitOffset(limitE, offsetE Expr, params []storage.Value) (lim, off int, err error) {
	lim = -1
	ec := &evalCtx{params: params, now: ex.now}
	if limitE != nil {
		v, err := ec.eval(limitE)
		if err != nil {
			return 0, 0, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, 0, fmt.Errorf("sql: LIMIT must be a non-negative integer")
		}
		lim = int(n)
	}
	if offsetE != nil {
		v, err := ec.eval(offsetE)
		if err != nil {
			return 0, 0, err
		}
		n, ok := v.(int64)
		if !ok || n < 0 {
			return 0, 0, fmt.Errorf("sql: OFFSET must be a non-negative integer")
		}
		off = int(n)
	}
	return lim, off, nil
}
