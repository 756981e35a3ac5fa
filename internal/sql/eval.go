package sql

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/storage"
)

// evalCtx carries everything expression evaluation needs: the current
// row bindings, bound parameters, precomputed aggregate values, and the
// executor for subqueries.
type evalCtx struct {
	row    *rowEnv
	params []storage.Value
	aggs   map[*FuncCall]storage.Value
	exec   *executor // nil when subqueries are not permitted in context
	now    time.Time
}

// rowEnv holds the row currently being evaluated, one boundTable per
// FROM binding in plan order. Bound column references (colRef) index it
// directly; outer is the enclosing statement's row for correlated
// subqueries.
type rowEnv struct {
	tables []boundTable
	// cur is the batch row that batch-bound tables read. The batch
	// executor repositions it instead of rebuilding the environment per
	// row (vexec.go).
	cur   int
	outer *rowEnv
}

type boundTable struct {
	width int         // column count of the binding
	vals  storage.Row // nil for the null-extended side of a LEFT JOIN
	// bcols, when non-nil, binds the table to batch columns instead of
	// vals: column j of the current row is bcols[j][cur].
	bcols [][]storage.Value
}

// column reads the value a bound column reference names.
func (r *rowEnv) column(c *colRef) storage.Value {
	for d := c.depth; d > 0; d-- {
		r = r.outer
	}
	bt := &r.tables[c.bind]
	switch {
	case bt.bcols != nil:
		return bt.bcols[c.ord][r.cur]
	case bt.vals == nil:
		return nil
	default:
		return bt.vals[c.ord]
	}
}

// eval evaluates an expression to a value (nil = SQL NULL).
func (ec *evalCtx) eval(e Expr) (storage.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *colRef:
		if ec.row == nil {
			return nil, fmt.Errorf("sql: column %q not allowed here", x.String())
		}
		return ec.row.column(x), nil
	case *ColumnRef:
		// Only bound copies are evaluated (bind.go); an unbound reference
		// sits where no row is in scope.
		return nil, fmt.Errorf("sql: column %q not allowed here", x.String())
	case *Param:
		if x.Index >= len(ec.params) {
			return nil, fmt.Errorf("sql: missing argument for placeholder %d", x.Index+1)
		}
		return storage.Normalize(ec.params[x.Index]), nil
	case *BinaryExpr:
		return ec.evalBinary(x)
	case *UnaryExpr:
		return ec.evalUnary(x)
	case *FuncCall:
		if v, ok := ec.aggs[x]; ok {
			return v, nil
		}
		return ec.evalFunc(x)
	case *InExpr:
		return ec.evalIn(x)
	case *BetweenExpr:
		return ec.evalBetween(x)
	case *IsNullExpr:
		v, err := ec.eval(x.X)
		if err != nil {
			return nil, err
		}
		return (v == nil) != x.Not, nil
	case *CaseExpr:
		return ec.evalCase(x)
	case *CastExpr:
		v, err := ec.eval(x.X)
		if err != nil {
			return nil, err
		}
		return castValue(v, x.To)
	case *SubqueryExpr:
		return ec.evalScalarSubquery(x.plan)
	case *ExistsExpr:
		rows, err := ec.runSubquery(x.plan, 1)
		if err != nil {
			return nil, err
		}
		return (len(rows) > 0) != x.Not, nil
	default:
		return nil, fmt.Errorf("sql: cannot evaluate %T", e)
	}
}

// evalBool evaluates e as a predicate: NULL counts as false.
func (ec *evalCtx) evalBool(e Expr) (bool, error) {
	v, err := ec.eval(e)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

func (ec *evalCtx) evalBinary(b *BinaryExpr) (storage.Value, error) {
	switch b.Op {
	case "AND", "OR":
		return ec.evalLogic(b)
	}
	l, err := ec.eval(b.Left)
	if err != nil {
		return nil, err
	}
	r, err := ec.eval(b.Right)
	if err != nil {
		return nil, err
	}
	switch b.Op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l == nil || r == nil {
			return nil, nil
		}
		if !comparable(l, r) {
			return nil, fmt.Errorf("sql: cannot compare %T with %T", l, r)
		}
		c := storage.Compare(l, r)
		switch b.Op {
		case "=":
			return c == 0, nil
		case "<>":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		default:
			return c >= 0, nil
		}
	case "+", "-", "*", "/", "%":
		return arith(b.Op, l, r)
	case "||":
		if l == nil || r == nil {
			return nil, nil
		}
		return storage.FormatValue(l) + storage.FormatValue(r), nil
	case "LIKE":
		if l == nil || r == nil {
			return nil, nil
		}
		ls, lok := l.(string)
		rs, rok := r.(string)
		if !lok || !rok {
			return nil, fmt.Errorf("sql: LIKE requires strings")
		}
		return likeMatch(ls, rs), nil
	default:
		return nil, fmt.Errorf("sql: unknown operator %q", b.Op)
	}
}

// evalLogic implements three-valued AND/OR.
func (ec *evalCtx) evalLogic(b *BinaryExpr) (storage.Value, error) {
	l, err := ec.eval(b.Left)
	if err != nil {
		return nil, err
	}
	lb, lNull := toBool3(l)
	if err != nil {
		return nil, err
	}
	if b.Op == "AND" {
		if !lNull && !lb {
			return false, nil // short circuit
		}
	} else {
		if !lNull && lb {
			return true, nil
		}
	}
	r, err := ec.eval(b.Right)
	if err != nil {
		return nil, err
	}
	rb, rNull := toBool3(r)
	if b.Op == "AND" {
		switch {
		case !rNull && !rb:
			return false, nil
		case lNull || rNull:
			return nil, nil
		default:
			return true, nil
		}
	}
	switch {
	case !rNull && rb:
		return true, nil
	case lNull || rNull:
		return nil, nil
	default:
		return false, nil
	}
}

// toBool3 maps a value into three-valued logic: (value, isNull).
func toBool3(v storage.Value) (bool, bool) {
	if v == nil {
		return false, true
	}
	b, ok := v.(bool)
	if !ok {
		return false, true
	}
	return b, false
}

func (ec *evalCtx) evalUnary(u *UnaryExpr) (storage.Value, error) {
	v, err := ec.eval(u.X)
	if err != nil {
		return nil, err
	}
	switch u.Op {
	case "NOT":
		if v == nil {
			return nil, nil
		}
		b, ok := v.(bool)
		if !ok {
			return nil, fmt.Errorf("sql: NOT requires a boolean, got %T", v)
		}
		return !b, nil
	case "-":
		switch x := v.(type) {
		case nil:
			return nil, nil
		case int64:
			if x == math.MinInt64 {
				return nil, errIntOverflow
			}
			return -x, nil
		case float64:
			return -x, nil
		default:
			return nil, fmt.Errorf("sql: cannot negate %T", v)
		}
	default:
		return nil, fmt.Errorf("sql: unknown unary operator %q", u.Op)
	}
}

func (ec *evalCtx) evalIn(in *InExpr) (storage.Value, error) {
	x, err := ec.eval(in.X)
	if err != nil {
		return nil, err
	}
	candidates := make([]storage.Value, 0, len(in.List))
	if in.Sub != nil {
		rows, err := ec.runSubquery(in.plan, 0)
		if err != nil {
			return nil, err
		}
		for _, r := range rows {
			if len(r) != 1 {
				return nil, fmt.Errorf("sql: IN subquery must return one column")
			}
			candidates = append(candidates, r[0])
		}
	} else {
		for _, e := range in.List {
			v, err := ec.eval(e)
			if err != nil {
				return nil, err
			}
			candidates = append(candidates, v)
		}
	}
	if x == nil {
		return nil, nil
	}
	sawNull := false
	for _, c := range candidates {
		if c == nil {
			sawNull = true
			continue
		}
		if comparable(x, c) && storage.Equal(x, c) {
			return !in.Not, nil
		}
	}
	if sawNull {
		return nil, nil // unknown
	}
	return in.Not, nil
}

func (ec *evalCtx) evalBetween(b *BetweenExpr) (storage.Value, error) {
	x, err := ec.eval(b.X)
	if err != nil {
		return nil, err
	}
	lo, err := ec.eval(b.Lo)
	if err != nil {
		return nil, err
	}
	hi, err := ec.eval(b.Hi)
	if err != nil {
		return nil, err
	}
	if x == nil || lo == nil || hi == nil {
		return nil, nil
	}
	in := storage.Compare(x, lo) >= 0 && storage.Compare(x, hi) <= 0
	return in != b.Not, nil
}

func (ec *evalCtx) evalCase(c *CaseExpr) (storage.Value, error) {
	if c.Operand != nil {
		op, err := ec.eval(c.Operand)
		if err != nil {
			return nil, err
		}
		for _, w := range c.Whens {
			cv, err := ec.eval(w.Cond)
			if err != nil {
				return nil, err
			}
			if op != nil && cv != nil && comparable(op, cv) && storage.Equal(op, cv) {
				return ec.eval(w.Then)
			}
		}
	} else {
		for _, w := range c.Whens {
			ok, err := ec.evalBool(w.Cond)
			if err != nil {
				return nil, err
			}
			if ok {
				return ec.eval(w.Then)
			}
		}
	}
	if c.Else != nil {
		return ec.eval(c.Else)
	}
	return nil, nil
}

func (ec *evalCtx) evalScalarSubquery(sub *Plan) (storage.Value, error) {
	rows, err := ec.runSubquery(sub, 2)
	if err != nil {
		return nil, err
	}
	switch {
	case len(rows) == 0:
		return nil, nil
	case len(rows) > 1:
		return nil, fmt.Errorf("sql: scalar subquery returned %d rows", len(rows))
	case len(rows[0]) != 1:
		return nil, fmt.Errorf("sql: scalar subquery must return one column")
	}
	return rows[0][0], nil
}

// runSubquery executes a subquery's plan with the current row visible
// for correlated references. limit 0 means unbounded. A nil plan is a
// subquery that was never bound: one in a context without an executor.
func (ec *evalCtx) runSubquery(sub *Plan, limit int) ([]storage.Row, error) {
	if ec.exec == nil || sub == nil {
		return nil, fmt.Errorf("sql: subqueries are not allowed in this context")
	}
	res, err := ec.exec.execPlan(sub, ec.params, ec.row)
	if err != nil {
		return nil, err
	}
	rows := res.Rows
	if limit > 0 && len(rows) > limit {
		rows = rows[:limit]
	}
	return rows, nil
}

func comparable(a, b storage.Value) bool {
	ta, _ := storage.TypeOf(storage.Normalize(a))
	tb, _ := storage.TypeOf(storage.Normalize(b))
	if ta == tb {
		return true
	}
	num := func(t storage.Type) bool { return t == storage.TypeInt || t == storage.TypeFloat }
	return num(ta) && num(tb)
}

func arith(op string, l, r storage.Value) (storage.Value, error) {
	if l == nil || r == nil {
		return nil, nil
	}
	li, lIsInt := l.(int64)
	ri, rIsInt := r.(int64)
	if lIsInt && rIsInt {
		switch op {
		case "+":
			s := li + ri
			if (li^s)&(ri^s) < 0 {
				return nil, errIntOverflow
			}
			return s, nil
		case "-":
			d := li - ri
			if (li^ri)&(li^d) < 0 {
				return nil, errIntOverflow
			}
			return d, nil
		case "*":
			p := li * ri
			if li != 0 && (p/li != ri || (li == -1 && ri == math.MinInt64)) {
				return nil, errIntOverflow
			}
			return p, nil
		case "/":
			if ri == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			if li == math.MinInt64 && ri == -1 {
				return nil, errIntOverflow
			}
			return li / ri, nil
		case "%":
			if ri == 0 {
				return nil, fmt.Errorf("sql: division by zero")
			}
			return li % ri, nil
		}
	}
	lf, lok := asNumber(l)
	rf, rok := asNumber(r)
	if !lok || !rok {
		return nil, fmt.Errorf("sql: operator %q requires numbers, got %T and %T", op, l, r)
	}
	switch op {
	case "+":
		return lf + rf, nil
	case "-":
		return lf - rf, nil
	case "*":
		return lf * rf, nil
	case "/":
		if rf == 0 {
			return nil, fmt.Errorf("sql: division by zero")
		}
		return lf / rf, nil
	case "%":
		if rf == 0 {
			return nil, fmt.Errorf("sql: division by zero")
		}
		return math.Mod(lf, rf), nil
	}
	return nil, fmt.Errorf("sql: unknown arithmetic operator %q", op)
}

func asNumber(v storage.Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

// likeMatch implements SQL LIKE with % (any run) and _ (any single rune).
func likeMatch(s, pattern string) bool {
	return likeRunes([]rune(s), []rune(pattern))
}

func likeRunes(s, p []rune) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			// Collapse consecutive %.
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRunes(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || !equalFoldRune(s[0], p[0]) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

func equalFoldRune(a, b rune) bool {
	return a == b || strings.EqualFold(string(a), string(b))
}

func castValue(v storage.Value, to storage.Type) (storage.Value, error) {
	if v == nil {
		return nil, nil
	}
	switch to {
	case storage.TypeInt:
		switch x := v.(type) {
		case int64:
			return x, nil
		case float64:
			return int64(x), nil
		case string:
			i, err := strconv.ParseInt(strings.TrimSpace(x), 10, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: cannot cast %q to INT", x)
			}
			return i, nil
		case bool:
			if x {
				return int64(1), nil
			}
			return int64(0), nil
		}
	case storage.TypeFloat:
		switch x := v.(type) {
		case int64:
			return float64(x), nil
		case float64:
			return x, nil
		case string:
			f, err := strconv.ParseFloat(strings.TrimSpace(x), 64)
			if err != nil {
				return nil, fmt.Errorf("sql: cannot cast %q to FLOAT", x)
			}
			return f, nil
		}
	case storage.TypeString:
		return storage.FormatValue(v), nil
	case storage.TypeBool:
		switch x := v.(type) {
		case bool:
			return x, nil
		case string:
			switch strings.ToLower(strings.TrimSpace(x)) {
			case "true", "t", "1", "yes":
				return true, nil
			case "false", "f", "0", "no":
				return false, nil
			}
		case int64:
			return x != 0, nil
		}
	case storage.TypeTime:
		switch x := v.(type) {
		case time.Time:
			return x, nil
		case string:
			return parseTimeString(x)
		case int64:
			return time.Unix(x, 0).UTC(), nil
		}
	}
	return nil, fmt.Errorf("sql: cannot cast %T to %s", v, to)
}

func parseTimeString(s string) (storage.Value, error) {
	s = strings.TrimSpace(s)
	for _, layout := range []string{
		time.RFC3339Nano, time.RFC3339, "2006-01-02 15:04:05", "2006-01-02", "15:04:05",
	} {
		if t, err := time.Parse(layout, s); err == nil {
			return t.UTC(), nil
		}
	}
	return nil, fmt.Errorf("sql: cannot parse %q as TIMESTAMP", s)
}
