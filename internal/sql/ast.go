package sql

import (
	"strings"

	"github.com/odbis/odbis/internal/storage"
)

// Statement is any parsed SQL statement.
type Statement interface{ stmt() }

// Expr is any parsed SQL expression.
type Expr interface {
	expr()
	// String renders the expression back to SQL (used by error messages,
	// EXPLAIN output, and the print→reparse property tests).
	String() string
}

// SelectStmt is a SELECT query.
type SelectStmt struct {
	Distinct bool
	Items    []SelectItem
	From     []TableRef // joined left-to-right
	Where    Expr
	GroupBy  []Expr
	Having   Expr
	OrderBy  []OrderItem
	Limit    Expr // nil when absent
	Offset   Expr
	// Union chains a second query: the results of both concatenate
	// (UNION ALL) or deduplicate (UNION). ORDER BY/LIMIT of this (the
	// leftmost) statement apply to the combined result.
	Union    *SelectStmt
	UnionAll bool
}

// SelectItem is one projected expression. Star items have Star set (with
// optional Table qualifier) and a nil Expr.
type SelectItem struct {
	Expr  Expr
	Alias string
	Star  bool
	Table string // for "t.*"
}

// JoinKind distinguishes join operators.
type JoinKind uint8

// Join kinds.
const (
	JoinInner JoinKind = iota
	JoinLeft
	JoinCross
)

// TableRef is one entry of the FROM clause. The first entry has
// JoinCross/nil On.
type TableRef struct {
	Table string
	Alias string
	Join  JoinKind
	On    Expr // nil for the first table and CROSS joins
}

// Name returns the binding name (alias or table).
func (t TableRef) Name() string {
	if t.Alias != "" {
		return t.Alias
	}
	return t.Table
}

// OrderItem is one ORDER BY key.
type OrderItem struct {
	Expr Expr
	Desc bool
}

// InsertStmt is INSERT INTO ... VALUES.
type InsertStmt struct {
	Table   string
	Columns []string // empty means all, in schema order
	Rows    [][]Expr
}

// UpdateStmt is UPDATE ... SET ... WHERE.
type UpdateStmt struct {
	Table string
	Set   []Assignment
	Where Expr
}

// Assignment is one SET column = expr.
type Assignment struct {
	Column string
	Value  Expr
}

// DeleteStmt is DELETE FROM ... WHERE.
type DeleteStmt struct {
	Table string
	Where Expr
}

// CreateTableStmt is CREATE TABLE.
type CreateTableStmt struct {
	IfNotExists bool
	Schema      *storage.Schema
}

// CreateIndexStmt is CREATE [UNIQUE] INDEX.
type CreateIndexStmt struct {
	Info storage.IndexInfo
}

// DropTableStmt is DROP TABLE.
type DropTableStmt struct {
	Table    string
	IfExists bool
}

// DropIndexStmt is DROP INDEX ix ON t.
type DropIndexStmt struct {
	Table string
	Index string
}

// ExplainStmt is EXPLAIN <select>: it plans the inner SELECT without
// executing it and returns the rendered plan tree, one line per row.
type ExplainStmt struct {
	Sel *SelectStmt
}

func (*SelectStmt) stmt()      {}
func (*ExplainStmt) stmt()     {}
func (*InsertStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}
func (*CreateTableStmt) stmt() {}
func (*CreateIndexStmt) stmt() {}
func (*DropTableStmt) stmt()   {}
func (*DropIndexStmt) stmt()   {}

// Literal is a constant value.
type Literal struct {
	Val storage.Value
}

// ColumnRef references a column, optionally table-qualified.
type ColumnRef struct {
	Table  string
	Column string
}

// Param is a ? placeholder, bound positionally at execution.
type Param struct {
	Index int // 0-based
}

// BinaryExpr applies Op to Left and Right. Op is one of
// = <> < <= > >= + - * / % AND OR LIKE ||.
type BinaryExpr struct {
	Op    string
	Left  Expr
	Right Expr
}

// UnaryExpr applies Op (NOT or -) to X.
type UnaryExpr struct {
	Op string
	X  Expr
}

// FuncCall is a scalar or aggregate function application. Distinct is for
// COUNT(DISTINCT x). Star is for COUNT(*).
type FuncCall struct {
	Name     string // upper-cased
	Args     []Expr
	Distinct bool
	Star     bool
}

// InExpr is X [NOT] IN (list) or X [NOT] IN (subquery).
type InExpr struct {
	X    Expr
	List []Expr
	Sub  *SelectStmt
	Not  bool
	plan *Plan // Sub's plan, set on the bound copy only (bind.go)
}

// BetweenExpr is X [NOT] BETWEEN Lo AND Hi.
type BetweenExpr struct {
	X      Expr
	Lo, Hi Expr
	Not    bool
}

// IsNullExpr is X IS [NOT] NULL.
type IsNullExpr struct {
	X   Expr
	Not bool
}

// CaseExpr is CASE [operand] WHEN ... THEN ... [ELSE ...] END.
type CaseExpr struct {
	Operand Expr // nil for searched CASE
	Whens   []WhenClause
	Else    Expr
}

// WhenClause is one WHEN/THEN arm.
type WhenClause struct {
	Cond Expr
	Then Expr
}

// SubqueryExpr is a scalar subquery.
type SubqueryExpr struct {
	Sub  *SelectStmt
	plan *Plan // set on the bound copy only (bind.go)
}

// ExistsExpr is [NOT] EXISTS (subquery).
type ExistsExpr struct {
	Sub  *SelectStmt
	Not  bool
	plan *Plan // set on the bound copy only (bind.go)
}

// CastExpr is CAST(x AS TYPE).
type CastExpr struct {
	X  Expr
	To storage.Type
}

func (*Literal) expr()      {}
func (*ColumnRef) expr()    {}
func (*Param) expr()        {}
func (*BinaryExpr) expr()   {}
func (*UnaryExpr) expr()    {}
func (*FuncCall) expr()     {}
func (*InExpr) expr()       {}
func (*BetweenExpr) expr()  {}
func (*IsNullExpr) expr()   {}
func (*CaseExpr) expr()     {}
func (*SubqueryExpr) expr() {}
func (*ExistsExpr) expr()   {}
func (*CastExpr) expr()     {}

func (l *Literal) String() string {
	switch v := l.Val.(type) {
	case nil:
		return "NULL"
	case string:
		return "'" + strings.ReplaceAll(v, "'", "''") + "'"
	case bool:
		if v {
			return "TRUE"
		}
		return "FALSE"
	default:
		return storage.FormatValue(l.Val)
	}
}

func (c *ColumnRef) String() string {
	if c.Table != "" {
		return c.Table + "." + c.Column
	}
	return c.Column
}

func (p *Param) String() string { return "?" }

func (b *BinaryExpr) String() string {
	return "(" + b.Left.String() + " " + b.Op + " " + b.Right.String() + ")"
}

func (u *UnaryExpr) String() string {
	if u.Op == "NOT" {
		return "(NOT " + u.X.String() + ")"
	}
	return "(" + u.Op + u.X.String() + ")"
}

func (f *FuncCall) String() string {
	if f.Star {
		return f.Name + "(*)"
	}
	var args []string
	for _, a := range f.Args {
		args = append(args, a.String())
	}
	d := ""
	if f.Distinct {
		d = "DISTINCT "
	}
	return f.Name + "(" + d + strings.Join(args, ", ") + ")"
}

func (in *InExpr) String() string {
	not := ""
	if in.Not {
		not = " NOT"
	}
	if in.Sub != nil {
		return "(" + in.X.String() + not + " IN (<subquery>))"
	}
	var items []string
	for _, e := range in.List {
		items = append(items, e.String())
	}
	return "(" + in.X.String() + not + " IN (" + strings.Join(items, ", ") + "))"
}

func (b *BetweenExpr) String() string {
	not := ""
	if b.Not {
		not = " NOT"
	}
	return "(" + b.X.String() + not + " BETWEEN " + b.Lo.String() + " AND " + b.Hi.String() + ")"
}

func (i *IsNullExpr) String() string {
	if i.Not {
		return "(" + i.X.String() + " IS NOT NULL)"
	}
	return "(" + i.X.String() + " IS NULL)"
}

func (c *CaseExpr) String() string {
	var sb strings.Builder
	sb.WriteString("CASE")
	if c.Operand != nil {
		sb.WriteString(" " + c.Operand.String())
	}
	for _, w := range c.Whens {
		sb.WriteString(" WHEN " + w.Cond.String() + " THEN " + w.Then.String())
	}
	if c.Else != nil {
		sb.WriteString(" ELSE " + c.Else.String())
	}
	sb.WriteString(" END")
	return sb.String()
}

func (s *SubqueryExpr) String() string { return "(<subquery>)" }

func (e *ExistsExpr) String() string {
	if e.Not {
		return "(NOT EXISTS (<subquery>))"
	}
	return "(EXISTS (<subquery>))"
}

func (c *CastExpr) String() string {
	return "CAST(" + c.X.String() + " AS " + c.To.String() + ")"
}
