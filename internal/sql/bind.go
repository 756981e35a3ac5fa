package sql

import (
	"fmt"
	"strings"
)

// This file is column binding, the name-resolution half of planning.
// Every column reference of a statement is resolved once, when the
// statement is planned, to the position its value occupies at run time:
// how many correlated scopes out, which FROM binding, which column. The
// executor then reads a column as one slice index per row, with no
// string work, and an unknown or ambiguous name fails the statement
// before any row is read, whether or not the table has rows.
//
// Resolution also marks the column as read in its binding, including
// a column of an outer statement that a correlated subquery reads. The
// planner turns the marks into the column lists its scans fill (column
// pruning): a column no expression resolves to is never copied out of
// storage.
//
// Binding never mutates the parsed statement, which the plan cache
// shares between executions and between plans. It returns a copy of
// each expression with every ColumnRef replaced by a colRef and every
// subquery carrying its own plan; the copies live in the plan.

// scope is the name-resolution context of one SELECT core or DML
// statement: its FROM bindings in order, and the scope of the statement
// a correlated subquery is nested in. A nil scope admits no column
// references at all (INSERT values, LIMIT and OFFSET).
type scope struct {
	bindings []binding
	outer    *scope
}

// colRef is a column reference resolved at plan time. Its value is
// column ord of binding bind in the row environment depth levels out
// (0 is the innermost statement).
type colRef struct {
	ref   *ColumnRef
	depth int
	bind  int
	ord   int
}

func (*colRef) expr()            {}
func (c *colRef) String() string { return c.ref.String() }

// resolve finds ref in the innermost scope that has it. A name that
// matches more than one column of one scope is ambiguous there, even if
// an outer scope would also resolve it.
func (sc *scope) resolve(ref *ColumnRef) (*colRef, error) {
	if sc == nil {
		return nil, fmt.Errorf("sql: column %q not allowed here", ref.String())
	}
	tl, cl := strings.ToLower(ref.Table), strings.ToLower(ref.Column)
	depth := 0
	for s := sc; s != nil; s = s.outer {
		var found *colRef
		for i, b := range s.bindings {
			if tl != "" && b.name != tl {
				continue
			}
			for j, c := range b.cols {
				if c != cl {
					continue
				}
				if found != nil {
					return nil, fmt.Errorf("sql: ambiguous column reference %q", ref.Column)
				}
				found = &colRef{ref: ref, depth: depth, bind: i, ord: j}
			}
		}
		if found != nil {
			s.bindings[found.bind].markRead(found.ord)
			return found, nil
		}
		depth++
	}
	if ref.Table != "" {
		return nil, fmt.Errorf("sql: unknown column %s.%s", ref.Table, ref.Column)
	}
	return nil, fmt.Errorf("sql: unknown column %q", ref.Column)
}

// bindExpr returns a copy of e with its column references resolved in
// sc and its subqueries planned with sc as their outer scope.
func bindExpr(db *DB, e Expr, sc *scope) (Expr, error) {
	var err error
	bind := func(e Expr) Expr {
		if err != nil || e == nil {
			return nil
		}
		var out Expr
		out, err = bindExpr(db, e, sc)
		return out
	}
	plan := func(sel *SelectStmt) *Plan {
		if err != nil {
			return nil
		}
		var p *Plan
		p, err = planSelect(db, sel, sc)
		return p
	}
	var out Expr
	switch x := e.(type) {
	case nil:
		return nil, nil
	case *Literal, *Param:
		return e, nil
	case *ColumnRef:
		return sc.resolve(x)
	case *BinaryExpr:
		out = &BinaryExpr{Op: x.Op, Left: bind(x.Left), Right: bind(x.Right)}
	case *UnaryExpr:
		out = &UnaryExpr{Op: x.Op, X: bind(x.X)}
	case *FuncCall:
		nf := *x
		nf.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			nf.Args[i] = bind(a)
		}
		out = &nf
	case *InExpr:
		ni := &InExpr{X: bind(x.X), Sub: x.Sub, Not: x.Not}
		if x.Sub != nil {
			ni.plan = plan(x.Sub)
		}
		if x.List != nil {
			ni.List = make([]Expr, len(x.List))
			for i, it := range x.List {
				ni.List[i] = bind(it)
			}
		}
		out = ni
	case *BetweenExpr:
		out = &BetweenExpr{X: bind(x.X), Lo: bind(x.Lo), Hi: bind(x.Hi), Not: x.Not}
	case *IsNullExpr:
		out = &IsNullExpr{X: bind(x.X), Not: x.Not}
	case *CaseExpr:
		nc := &CaseExpr{Operand: bind(x.Operand), Else: bind(x.Else)}
		nc.Whens = make([]WhenClause, len(x.Whens))
		for i, w := range x.Whens {
			nc.Whens[i] = WhenClause{Cond: bind(w.Cond), Then: bind(w.Then)}
		}
		out = nc
	case *CastExpr:
		out = &CastExpr{X: bind(x.X), To: x.To}
	case *SubqueryExpr:
		out = &SubqueryExpr{Sub: x.Sub, plan: plan(x.Sub)}
	case *ExistsExpr:
		out = &ExistsExpr{Sub: x.Sub, Not: x.Not, plan: plan(x.Sub)}
	default:
		return nil, fmt.Errorf("sql: cannot bind %T", e)
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// bindExprs binds each expression of es in sc.
func bindExprs(db *DB, es []Expr, sc *scope) ([]Expr, error) {
	out := make([]Expr, len(es))
	for i, e := range es {
		b, err := bindExpr(db, e, sc)
		if err != nil {
			return nil, err
		}
		out[i] = b
	}
	return out, nil
}
