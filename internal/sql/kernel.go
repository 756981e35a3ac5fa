package sql

import (
	"errors"
	"fmt"
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

// This file holds the batch kernels of the grouped read path. The
// planner resolves each aggregate to a kind and a simple WHERE to a
// typed comparison once per plan; the executor then runs one tight
// loop per batch instead of interpreting the expression tree per row
// (the MonetDB/X100 execution model). Values a kernel does not handle
// go through the row evaluator, so results and error messages are the
// ones it gives.

// errIntOverflow is the error of integer arithmetic whose exact result
// does not fit in 64 bits.
var errIntOverflow = errors.New("sql: integer overflow")

// batchCol returns the joined-row position of e when e is a bare column
// of the statement's own FROM bindings, else -1. A kernel reads such an
// operand straight from the batch column.
func batchCol(e Expr, colOff []int) int {
	if c, ok := e.(*colRef); ok && c.depth == 0 {
		return colOff[c.bind] + c.ord
	}
	return -1
}

// aggKind is an aggregate resolved at plan time.
type aggKind uint8

const (
	aggCountStar aggKind = iota
	aggCount
	aggSum
	aggAvg
	aggMin
	aggMax
)

var aggKinds = map[string]aggKind{
	"COUNT": aggCount, "SUM": aggSum, "AVG": aggAvg, "MIN": aggMin, "MAX": aggMax,
}

// aggPlan is one aggregate of a grouped plan.
type aggPlan struct {
	node     *FuncCall // the bound call; finished values are keyed by it
	kind     aggKind
	distinct bool
	arg      Expr // nil for COUNT(*)
	col      int  // batch column of a bare-column arg, else -1
}

// planAggregate resolves an aggregate call to its kernel.
func planAggregate(node *FuncCall, colOff []int) (aggPlan, error) {
	name := strings.ToUpper(node.Name)
	kind, ok := aggKinds[name]
	if !ok {
		return aggPlan{}, fmt.Errorf("sql: unknown aggregate %s", node.Name)
	}
	a := aggPlan{node: node, kind: kind, distinct: node.Distinct, col: -1}
	if node.Star && kind == aggCount {
		a.kind = aggCountStar
		return a, nil
	}
	if node.Star || len(node.Args) != 1 {
		return aggPlan{}, fmt.Errorf("sql: %s takes exactly one argument", node.Name)
	}
	a.arg = node.Args[0]
	a.col = batchCol(a.arg, colOff)
	return a, nil
}

// aggState accumulates one aggregate over one group.
type aggState struct {
	count    int64
	sumI     int64
	sumF     float64
	isFloat  bool
	overflow bool          // sumI wrapped; an error unless the sum is a float
	best     storage.Value // MIN or MAX so far
	seen     map[string]bool
}

// kernelScratch is the reused per-statement working space of the
// kernels. A subquery evaluated inside a kernel's argument runs its own
// grouping, so the scratch belongs to one groupBatches call, not to the
// executor.
type kernelScratch struct {
	gids  []int32         // group id of each batch row
	args  []storage.Value // evaluated argument of each batch row
	dvals []storage.Value // DISTINCT survivors
	dgids []int32
	key   []byte
}

func newKernelScratch() *kernelScratch {
	return &kernelScratch{
		gids:  make([]int32, 0, execBatchRows),
		args:  make([]storage.Value, 0, execBatchRows),
		dvals: make([]storage.Value, 0, execBatchRows),
		dgids: make([]int32, 0, execBatchRows),
	}
}

// argValues returns the argument of every row of b: the batch column
// itself for a bare column, else the argument evaluated per row into
// the scratch vector.
func (a *aggPlan) argValues(b *storage.Batch, view *rowView, ks *kernelScratch) ([]storage.Value, error) {
	n := b.Len()
	switch {
	case a.kind == aggCountStar:
		return nil, nil
	case a.col >= 0:
		return b.Cols[a.col][:n], nil
	}
	ks.args = ks.args[:0]
	for r := 0; r < n; r++ {
		view.env.cur = r
		v, err := view.ec.eval(a.arg)
		if err != nil {
			return nil, err
		}
		ks.args = append(ks.args, v)
	}
	return ks.args, nil
}

// accumulate folds one batch into the per-group states: row r belongs
// to group gids[r] and has argument vals[r] (vals is unused by
// COUNT(*)). Aggregates skip NULL arguments.
func (a *aggPlan) accumulate(sts []aggState, gids []int32, vals []storage.Value, ks *kernelScratch) error {
	if a.kind == aggCountStar {
		for _, g := range gids {
			sts[g].count++
		}
		return nil
	}
	if a.distinct {
		vals, gids = ks.firstSeen(sts, gids, vals)
	}
	switch a.kind {
	case aggCount:
		for r, v := range vals {
			if v != nil {
				sts[gids[r]].count++
			}
		}
	case aggSum:
		for r, v := range vals {
			switch x := v.(type) {
			case nil:
			case int64:
				st := &sts[gids[r]]
				s := st.sumI + x
				if (st.sumI^s)&(x^s) < 0 {
					st.overflow = true
				}
				st.count++
				st.sumI = s
				st.sumF += float64(x)
			case float64:
				st := &sts[gids[r]]
				st.count++
				st.isFloat = true
				st.sumF += x
			default:
				return a.notNumeric(v)
			}
		}
	case aggAvg:
		for r, v := range vals {
			switch x := v.(type) {
			case nil:
			case int64:
				st := &sts[gids[r]]
				st.count++
				st.sumF += float64(x)
			case float64:
				st := &sts[gids[r]]
				st.count++
				st.sumF += x
			default:
				return a.notNumeric(v)
			}
		}
	case aggMin:
		for r, v := range vals {
			if v == nil {
				continue
			}
			if st := &sts[gids[r]]; st.best == nil || storage.Compare(v, st.best) < 0 {
				st.best = v
			}
		}
	case aggMax:
		for r, v := range vals {
			if v == nil {
				continue
			}
			if st := &sts[gids[r]]; st.best == nil || storage.Compare(v, st.best) > 0 {
				st.best = v
			}
		}
	}
	return nil
}

func (a *aggPlan) notNumeric(v storage.Value) error {
	return fmt.Errorf("sql: %s requires numeric values, got %T", a.node.Name, v)
}

// firstSeen keeps the non-NULL values not yet seen in their group's
// DISTINCT set, returned with their group ids in the reused scratch.
func (ks *kernelScratch) firstSeen(sts []aggState, gids []int32, vals []storage.Value) ([]storage.Value, []int32) {
	ks.dvals, ks.dgids = ks.dvals[:0], ks.dgids[:0]
	for r, v := range vals {
		if v == nil {
			continue
		}
		st := &sts[gids[r]]
		if st.seen == nil {
			st.seen = make(map[string]bool)
		}
		ks.key = storage.AppendKey(ks.key[:0], v)
		if st.seen[string(ks.key)] {
			continue
		}
		st.seen[string(ks.key)] = true
		ks.dvals = append(ks.dvals, v)
		ks.dgids = append(ks.dgids, gids[r])
	}
	return ks.dvals, ks.dgids
}

// finish returns the aggregate's value over a group.
func (a *aggPlan) finish(st *aggState) (storage.Value, error) {
	switch a.kind {
	case aggCountStar, aggCount:
		return st.count, nil
	case aggSum:
		switch {
		case st.count == 0:
			return nil, nil
		case st.isFloat:
			return st.sumF, nil
		case st.overflow:
			return nil, errIntOverflow
		}
		return st.sumI, nil
	case aggAvg:
		if st.count == 0 {
			return nil, nil
		}
		return st.sumF / float64(st.count), nil
	default: // MIN, MAX
		return st.best, nil
	}
}

// groupTable assigns dense group ids to GROUP BY key values in
// first-seen order.
type groupTable struct {
	// byStr serves a single key whose value is a string, keyed by the
	// string itself. AppendKey tags strings apart from every other type,
	// so byStr and byKey never hold the same group.
	byStr map[string]int32
	byKey map[string]int32 // AppendKey encoding of the key tuple
	key   []byte           // reused encoding buffer
	n     int32
}

// id returns the group of the key tuple vals (one value per GROUP BY
// key) and whether the group is new.
func (t *groupTable) id(vals []storage.Value) (int32, bool) {
	if len(vals) == 1 {
		if s, ok := vals[0].(string); ok {
			if id, ok := t.byStr[s]; ok {
				return id, false
			}
			t.byStr[s] = t.n
			t.n++
			return t.n - 1, true
		}
	}
	t.key = storage.AppendKey(t.key[:0], vals...)
	if id, ok := t.byKey[string(t.key)]; ok {
		return id, false
	}
	t.byKey[string(t.key)] = t.n
	t.n++
	return t.n - 1, true
}

// exactInt bounds the integers whose float64 conversion is exact.
// Within it an int64 comparison orders values the way storage.Compare,
// which compares numbers as float64, does.
const exactInt = 1 << 53

// cmpKernel is a WHERE of the form `column <cmp> ?|literal`, resolved at
// plan time. The executor compares int64 column values to an int64
// operand in a typed loop; any other row value, or an operand that is
// not such an int, is left to the row evaluator.
type cmpKernel struct {
	col     int  // batch column
	operand Expr // *Param or *Literal
	// accept[0], [1] and [2] tell whether a row passes when its value
	// is less than, equal to or greater than the operand.
	accept [3]bool
}

// planFilter recognizes where as a comparison kernel, or returns nil.
func planFilter(where Expr, colOff []int) *cmpKernel {
	b, ok := where.(*BinaryExpr)
	if !ok {
		return nil
	}
	col, operand, op := batchCol(b.Left, colOff), b.Right, b.Op
	if col < 0 {
		col, operand, op = batchCol(b.Right, colOff), b.Left, flipOp(b.Op)
	}
	if col < 0 {
		return nil
	}
	switch x := operand.(type) {
	case *Param:
	case *Literal:
		if _, isInt := x.Val.(int64); !isInt {
			return nil
		}
	default:
		return nil
	}
	k := &cmpKernel{col: col, operand: operand}
	switch op {
	case "=":
		k.accept = [3]bool{false, true, false}
	case "<>":
		k.accept = [3]bool{true, false, true}
	case "<":
		k.accept = [3]bool{true, false, false}
	case "<=":
		k.accept = [3]bool{true, true, false}
	case ">":
		k.accept = [3]bool{false, false, true}
	case ">=":
		k.accept = [3]bool{false, true, true}
	default:
		return nil
	}
	return k
}

// operandInt evaluates the operand for one execution and reports
// whether the typed loop applies to it. An operand that fails to
// evaluate is left to the row evaluator, which reports the error.
func (k *cmpKernel) operandInt(ec *evalCtx) (int64, bool) {
	v, err := ec.eval(k.operand)
	if err != nil {
		return 0, false
	}
	x, ok := v.(int64)
	return x, ok && x >= -exactInt && x <= exactInt
}

// test reports whether value v passes against operand x, and whether
// the kernel handled v at all.
func (k *cmpKernel) test(v storage.Value, x int64) (pass, handled bool) {
	y, ok := v.(int64)
	if !ok || y < -exactInt || y > exactInt {
		return false, false
	}
	c := 1
	switch {
	case y < x:
		c = 0
	case y > x:
		c = 2
	}
	return k.accept[c], true
}
