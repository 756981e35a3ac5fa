package sql

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"github.com/odbis/odbis/internal/storage"
)

// CompiledExpr is a parsed scalar expression evaluated against a field
// map. It powers ETL derive/filter steps and ad-hoc report fields, where
// expressions come from user configuration rather than full SQL
// statements.
type CompiledExpr struct {
	src  string
	expr Expr
}

// CompileExpr parses a scalar expression such as
//
//	"amount * 1.2", "UPPER(name) || '!'", "age >= 18 AND country = 'FR'"
//
// Aggregates, subqueries and parameters are rejected.
func CompileExpr(src string) (*CompiledExpr, error) {
	stmt, err := Parse("SELECT " + src)
	if err != nil {
		return nil, err
	}
	sel := stmt.(*SelectStmt)
	if len(sel.Items) != 1 || sel.Items[0].Star || sel.From != nil || sel.Where != nil {
		return nil, fmt.Errorf("sql: %q is not a single scalar expression", src)
	}
	e := sel.Items[0].Expr
	if err := rejectNonScalar(e); err != nil {
		return nil, fmt.Errorf("sql: expression %q: %w", src, err)
	}
	return &CompiledExpr{src: src, expr: e}, nil
}

// MustCompileExpr is CompileExpr, panicking on error.
func MustCompileExpr(src string) *CompiledExpr {
	c, err := CompileExpr(src)
	if err != nil {
		panic(err)
	}
	return c
}

// Source returns the original expression text.
func (c *CompiledExpr) Source() string { return c.src }

// Eval evaluates the expression with fields bound as column names
// (case-insensitive). Unknown columns are an error.
func (c *CompiledExpr) Eval(fields map[string]storage.Value) (storage.Value, error) {
	names := make([]string, 0, len(fields))
	for k := range fields {
		names = append(names, strings.ToLower(k))
	}
	sort.Strings(names)
	vals := make(storage.Row, len(names))
	lower := make(map[string]storage.Value, len(fields))
	for k, v := range fields {
		lower[strings.ToLower(k)] = storage.Normalize(v)
	}
	for i, n := range names {
		vals[i] = lower[n]
	}
	return c.evalIn(&scope{bindings: []binding{{cols: names}}}, []storage.Row{vals})
}

// evalIn binds the expression to the field names of sc, whose bindings
// carry the values rows, and evaluates it. Field sets differ between
// calls, so binding is per call.
func (c *CompiledExpr) evalIn(sc *scope, rows []storage.Row) (storage.Value, error) {
	e, err := bindExpr(nil, c.expr, sc)
	if err != nil {
		return nil, err
	}
	env := &rowEnv{tables: make([]boundTable, len(rows))}
	for i, vals := range rows {
		env.tables[i] = boundTable{width: len(vals), vals: vals}
	}
	ec := &evalCtx{row: env, now: time.Now().UTC()}
	return ec.eval(e)
}

// EvalBool evaluates the expression as a predicate (NULL → false).
func (c *CompiledExpr) EvalBool(fields map[string]storage.Value) (bool, error) {
	v, err := c.Eval(fields)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

// EvalScoped evaluates the expression against multiple named field sets:
// a reference "name.field" reads scopes[name][field]. Bare field names
// resolve across all scopes and must be unambiguous. The rules engine
// uses this to evaluate conditions over several bound facts.
func (c *CompiledExpr) EvalScoped(scopes map[string]map[string]storage.Value) (storage.Value, error) {
	sc := &scope{}
	var rows []storage.Row
	scopeNames := make([]string, 0, len(scopes))
	for name := range scopes {
		scopeNames = append(scopeNames, name)
	}
	sort.Strings(scopeNames)
	for _, name := range scopeNames {
		fields := scopes[name]
		cols := make([]string, 0, len(fields))
		for k := range fields {
			cols = append(cols, strings.ToLower(k))
		}
		sort.Strings(cols)
		vals := make(storage.Row, len(cols))
		for i, col := range cols {
			for k, v := range fields {
				if strings.ToLower(k) == col {
					vals[i] = storage.Normalize(v)
					break
				}
			}
		}
		sc.bindings = append(sc.bindings, binding{name: strings.ToLower(name), cols: cols})
		rows = append(rows, vals)
	}
	return c.evalIn(sc, rows)
}

// EvalScopedBool is EvalScoped as a predicate (NULL → false).
func (c *CompiledExpr) EvalScopedBool(scopes map[string]map[string]storage.Value) (bool, error) {
	v, err := c.EvalScoped(scopes)
	if err != nil {
		return false, err
	}
	b, ok := v.(bool)
	return ok && b, nil
}

// Columns returns the column names referenced by the expression, sorted.
func (c *CompiledExpr) Columns() []string {
	set := map[string]bool{}
	var walk func(Expr)
	walk = func(e Expr) {
		switch x := e.(type) {
		case nil:
		case *ColumnRef:
			set[strings.ToLower(x.Column)] = true
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.X)
		case *FuncCall:
			for _, a := range x.Args {
				walk(a)
			}
		case *InExpr:
			walk(x.X)
			for _, it := range x.List {
				walk(it)
			}
		case *BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *IsNullExpr:
			walk(x.X)
		case *CaseExpr:
			walk(x.Operand)
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(x.Else)
		case *CastExpr:
			walk(x.X)
		}
	}
	walk(c.expr)
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func rejectNonScalar(e Expr) error {
	var err error
	var walk func(Expr)
	walk = func(e Expr) {
		if err != nil {
			return
		}
		switch x := e.(type) {
		case nil:
		case *FuncCall:
			if isAggregate(x.Name) {
				err = fmt.Errorf("aggregate %s not allowed", x.Name)
				return
			}
			for _, a := range x.Args {
				walk(a)
			}
		case *SubqueryExpr, *ExistsExpr:
			err = fmt.Errorf("subqueries not allowed")
		case *Param:
			err = fmt.Errorf("parameters not allowed")
		case *InExpr:
			if x.Sub != nil {
				err = fmt.Errorf("subqueries not allowed")
				return
			}
			walk(x.X)
			for _, it := range x.List {
				walk(it)
			}
		case *BinaryExpr:
			walk(x.Left)
			walk(x.Right)
		case *UnaryExpr:
			walk(x.X)
		case *BetweenExpr:
			walk(x.X)
			walk(x.Lo)
			walk(x.Hi)
		case *IsNullExpr:
			walk(x.X)
		case *CaseExpr:
			walk(x.Operand)
			for _, w := range x.Whens {
				walk(w.Cond)
				walk(w.Then)
			}
			walk(x.Else)
		case *CastExpr:
			walk(x.X)
		}
	}
	walk(e)
	return err
}
