package analysis

import (
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"strings"
)

// SQLTaint tracks request- and tenant-derived strings through the whole
// module and reports the ones that reach a SQL execution entry point
// after being assembled with fmt.Sprintf or string concatenation. The
// platform's parser binds ? placeholders positionally, so the only
// reason to format a value into a query string is a mistake — and it is
// exactly the mistake that breaks the paper's §2 isolation story, since
// a formatted tenant value can smuggle table names or predicates past
// the Catalog rewrite.
//
// The taint lattice has three points:
//
//	clean < raw < built
//
// raw marks data derived from a request or tenant artifact
// (*net/http.Request lookups, url.Values, report.Spec/Element fields);
// built marks raw data that has been pushed through Sprintf, string
// concatenation, or a string builder. Passing a raw string straight to
// Query is the product's own API (the SQL text IS the request) and
// stays silent; only built values are findings.
//
// Taint is interprocedural: every declared function gets a summary
// (which parameters flow to which results, at what strength, and which
// parameters reach a SQL sink inside the callee chain), computed to a
// fixpoint over the static call graph. Struct fields propagate
// coarsely: storing a tainted string in a field taints the whole value,
// so reading any field back is tainted. Dynamic calls are invisible
// (see Program), so the analyzer under-approximates.
//
// Sinks are the query-string arguments of sql.DB.Query/QueryContext/
// Exec/ExecContext/Prepare and tenant.Catalog.Query/Exec. Where the offending argument is a direct
// fmt.Sprintf call with only plain %s/%d/%v/%f verbs, the diagnostic
// carries a mechanical fix that rewrites the format string to ?
// placeholders and passes the formatted values as bind arguments
// (storage.Value is `any`, so the values pass through unchanged).
var SQLTaint = &Analyzer{
	Name:       "sqltaint",
	Doc:        "flag Sprintf/concat-built strings from request or tenant input reaching SQL execution",
	RunProgram: runSQLTaint,
}

// Taint lattice points and dependency strengths.
const (
	taintRaw   int8 = 1 // request/tenant-derived, unformatted
	taintBuilt int8 = 2 // derived and assembled into a larger string
)

const (
	depPass  int8 = 1 // parameter flows through unchanged
	depBuild int8 = 2 // parameter is formatted/concatenated on the way
)

// tval is a symbolic taint value: a constant lattice point joined with
// contributions from the enclosing function's parameters.
type tval struct {
	konst int8
	via   string       // first builder/source on the konst path, for messages
	deps  map[int]int8 // parameter index (receiverAndParams order) → strength
}

func (v tval) isZero() bool { return v.konst == 0 && len(v.deps) == 0 }

func joinTaint(a, b tval) tval {
	out := tval{konst: a.konst, via: a.via}
	if b.konst > out.konst {
		out.konst = b.konst
	}
	if out.via == "" {
		out.via = b.via
	}
	if len(a.deps)+len(b.deps) > 0 {
		out.deps = map[int]int8{}
		for i, s := range a.deps {
			out.deps[i] = s
		}
		for i, s := range b.deps {
			if s > out.deps[i] {
				out.deps[i] = s
			}
		}
	}
	return out
}

// buildOf lifts a value through a string-assembly operation.
func buildOf(v tval, via string) tval {
	out := tval{via: v.via}
	if out.via == "" {
		out.via = via
	}
	if v.konst >= taintRaw {
		out.konst = taintBuilt
	}
	if len(v.deps) > 0 {
		out.deps = map[int]int8{}
		for i := range v.deps {
			out.deps[i] = depBuild
		}
	}
	return out
}

func taintEqual(a, b tval) bool {
	if a.konst != b.konst || a.via != b.via || len(a.deps) != len(b.deps) {
		return false
	}
	for i, s := range a.deps {
		if b.deps[i] != s {
			return false
		}
	}
	return true
}

// taintObligation records that a parameter reaching this function flows
// into a SQL sink somewhere down the callee chain.
type taintObligation struct {
	deps map[int]int8 // parameter index → strength needed to trigger
	path string       // callee chain down to the sink, e.g. "sqlbuild.Run → sql.DB.Query"
	pos  token.Pos    // the call (or sink) inside this function
}

// taintSummary is one function's transfer behaviour.
type taintSummary struct {
	rets  []tval
	sinks []taintObligation
}

func summariesEqual(a, b *taintSummary) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.rets) != len(b.rets) || len(a.sinks) != len(b.sinks) {
		return false
	}
	for i := range a.rets {
		if !taintEqual(a.rets[i], b.rets[i]) {
			return false
		}
	}
	for i := range a.sinks {
		x, y := a.sinks[i], b.sinks[i]
		if x.path != y.path || x.pos != y.pos || !taintEqual(tval{deps: x.deps}, tval{deps: y.deps}) {
			return false
		}
	}
	return true
}

func runSQLTaint(pass *ProgramPass) {
	prog := pass.Prog
	sums := map[*types.Func]*taintSummary{}
	// Summary fixpoint. The lattice is finite, joins are monotone, and
	// the round cap bounds witness-path growth through recursion.
	for round := 0; round < 12; round++ {
		changed := false
		for _, fi := range prog.Funcs() {
			ns := evalTaintFunc(fi, prog, sums, nil)
			if !summariesEqual(sums[fi.Obj], ns) {
				sums[fi.Obj] = ns
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	// Reporting pass, deduplicated by position + message.
	seen := map[string]bool{}
	rep := func(pos token.Pos, fix *SuggestedFix, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprint(pos) + "|" + msg
		if seen[key] {
			return
		}
		seen[key] = true
		pass.ReportFix(pos, fix, "%s", msg)
	}
	for _, fi := range prog.Funcs() {
		evalTaintFunc(fi, prog, sums, rep)
	}
}

// taintSourceType reports whether a parameter of type t is itself
// request/tenant input.
func taintSourceType(t types.Type) bool {
	return isNamed(t, "net/http", "Request") ||
		isNamed(t, "net/url", "Values") ||
		isNamed(t, "github.com/odbis/odbis/internal/report", "Spec") ||
		isNamed(t, "github.com/odbis/odbis/internal/report", "Element")
}

// sqlSinkArg classifies a call as a SQL sink and returns the
// query-string argument plus a printable sink name.
func sqlSinkArg(info *types.Info, call *ast.CallExpr) (ast.Expr, string, bool) {
	recv := methodReceiverType(info, call)
	if recv == nil {
		return nil, "", false
	}
	name := ast.Unparen(call.Fun).(*ast.SelectorExpr).Sel.Name
	const sqlPath = "github.com/odbis/odbis/internal/sql"
	const tenantPath = "github.com/odbis/odbis/internal/tenant"
	switch {
	case isNamed(recv, sqlPath, "DB"):
		switch name {
		case "Query", "Exec":
			if len(call.Args) > 0 {
				return call.Args[0], "sql.DB." + name, true
			}
		case "QueryContext", "ExecContext", "Prepare":
			if len(call.Args) > 1 {
				return call.Args[1], "sql.DB." + name, true
			}
		}
	case isNamed(recv, tenantPath, "Catalog"):
		if (name == "Query" || name == "Exec") && len(call.Args) > 1 {
			return call.Args[1], "tenant.Catalog." + name, true
		}
	}
	return nil, "", false
}

// stringBuilders are stdlib calls that assemble strings (build), and
// stringPassers are ones that transform a string without assembling
// more data into it (pass).
var stringBuilders = map[string]bool{
	"fmt.Sprintf": true, "fmt.Sprint": true, "fmt.Sprintln": true,
	"strings.Join": true,
}
var stringPassers = map[string]bool{
	"strings.TrimSpace": true, "strings.ToUpper": true, "strings.ToLower": true,
	"strings.Trim": true, "strings.TrimPrefix": true, "strings.TrimSuffix": true,
	"strings.Replace": true, "strings.ReplaceAll": true, "strings.Clone": true,
}

func qualifiedName(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Name() + "." + obj.Name()
}

// evalTaintFunc abstract-interprets one function body against the
// current summaries. With rep == nil it only computes the function's
// own summary; with rep set it also emits diagnostics for sinks whose
// value is built from intrinsic (konst) taint and for calls that feed
// tainted arguments into callee sink obligations.
func evalTaintFunc(fi *FuncInfo, prog *Program, sums map[*types.Func]*taintSummary, rep func(token.Pos, *SuggestedFix, string, ...any)) *taintSummary {
	info := fi.Pkg.Info
	sig := fi.Obj.Type().(*types.Signature)
	params := receiverAndParams(sig)
	paramIdx := map[types.Object]int{}
	for i, p := range params {
		paramIdx[p] = i
	}
	vars := map[types.Object]tval{}
	fnName := shortFuncName(fi.Obj)

	var eval func(e ast.Expr) tval
	evalIdent := func(id *ast.Ident) tval {
		obj := info.Uses[id]
		if obj == nil {
			obj = info.Defs[id]
		}
		if obj == nil {
			return tval{}
		}
		if i, ok := paramIdx[obj]; ok {
			if taintSourceType(obj.Type()) {
				// via stays empty: it names the builder, not the source.
				return tval{konst: taintRaw}
			}
			return tval{deps: map[int]int8{i: depPass}}
		}
		return vars[obj]
	}
	// argVals aligns call arguments (receiver first for methods) to the
	// callee's receiverAndParams indexing, folding variadic overflow into
	// the last parameter.
	argVals := func(call *ast.CallExpr, callee *types.Func) []tval {
		csig, ok := callee.Type().(*types.Signature)
		if !ok {
			return nil
		}
		exprs := callArgVector(info, call, callee)
		n := len(receiverAndParams(csig))
		out := make([]tval, n)
		for i, e := range exprs {
			if e == nil {
				continue
			}
			idx := i
			if idx >= n {
				idx = n - 1
			}
			if idx >= 0 {
				out[idx] = joinTaint(out[idx], eval(e))
			}
		}
		return out
	}
	instantiate := func(sum tval, av []tval, via string) tval {
		out := tval{konst: sum.konst, via: sum.via}
		for idx, strength := range sum.deps {
			if idx < 0 || idx >= len(av) {
				continue
			}
			v := av[idx]
			if strength == depBuild {
				v = buildOf(v, via)
			}
			out = joinTaint(out, v)
		}
		return out
	}
	eval = func(e ast.Expr) tval {
		switch x := ast.Unparen(e).(type) {
		case *ast.BasicLit:
			return tval{}
		case *ast.Ident:
			return evalIdent(x)
		case *ast.SelectorExpr:
			// Qualified identifier (pkg.Var) or field read; field reads
			// inherit the root value's taint (coarse struct propagation).
			if root := rootIdent(x); root != nil {
				return evalIdent(root)
			}
			if call, ok := ast.Unparen(x.X).(*ast.CallExpr); ok {
				return eval(call)
			}
			return tval{}
		case *ast.IndexExpr:
			return eval(x.X)
		case *ast.SliceExpr:
			return eval(x.X)
		case *ast.StarExpr:
			return eval(x.X)
		case *ast.UnaryExpr:
			return eval(x.X)
		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if t := info.Types[x].Type; t != nil && isStringish(t) {
					return buildOf(joinTaint(eval(x.X), eval(x.Y)), "string concatenation")
				}
			}
			return tval{}
		case *ast.CompositeLit:
			var v tval
			for _, el := range x.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					el = kv.Value
				}
				v = joinTaint(v, eval(el))
			}
			return v
		case *ast.CallExpr:
			return evalCall(x, eval, info, prog, sums, argVals, instantiate)
		}
		return tval{}
	}

	// Local fixpoint over assignments: flow-insensitive, so ordering
	// inside the body does not matter and a few rounds converge.
	assignTo := func(lhs ast.Expr, v tval) bool {
		if v.isZero() {
			return false
		}
		root := rootIdent(lhs)
		if root == nil || root.Name == "_" {
			return false
		}
		obj := info.Defs[root]
		if obj == nil {
			obj = info.Uses[root]
		}
		if obj == nil {
			return false
		}
		if _, isParam := paramIdx[obj]; isParam {
			return false // parameters keep their symbolic identity
		}
		nv := joinTaint(vars[obj], v)
		if taintEqual(vars[obj], nv) {
			return false
		}
		vars[obj] = nv
		return true
	}
	for round := 0; round < 8; round++ {
		changed := false
		ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
					if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
						rets := callResults(call, info, prog, sums, eval, argVals, instantiate)
						for i, lhs := range st.Lhs {
							if i < len(rets) {
								changed = assignTo(lhs, rets[i]) || changed
							}
						}
						return true
					}
				}
				for i, lhs := range st.Lhs {
					if i < len(st.Rhs) {
						changed = assignTo(lhs, eval(st.Rhs[i])) || changed
					}
				}
			case *ast.ValueSpec:
				for i, name := range st.Names {
					if i < len(st.Values) {
						changed = assignTo(name, eval(st.Values[i])) || changed
					}
				}
			case *ast.CallExpr:
				// Out-parameter rule: a call fed any tainted input may fill
				// &x arguments (decodeBody(r, &req), json Decode, Sscanf).
				var in tval
				for _, a := range st.Args {
					if _, isAddr := addrOperand(a); !isAddr {
						in = joinTaint(in, eval(a))
					}
				}
				if sel, ok := ast.Unparen(st.Fun).(*ast.SelectorExpr); ok {
					if _, isSel := info.Selections[sel]; isSel {
						in = joinTaint(in, eval(sel.X))
					}
				}
				if !in.isZero() {
					for _, a := range st.Args {
						if id, isAddr := addrOperand(a); isAddr {
							changed = assignTo(id, in) || changed
						}
					}
				}
				// Builder mutation rule: writing tainted data into a
				// strings.Builder/bytes.Buffer marks the builder built.
				if recv := methodReceiverType(info, st); recv != nil {
					name := ast.Unparen(st.Fun).(*ast.SelectorExpr).Sel.Name
					if strings.HasPrefix(name, "Write") &&
						(isNamed(recv, "strings", "Builder") || isNamed(recv, "bytes", "Buffer")) {
						var w tval
						for _, a := range st.Args {
							w = joinTaint(w, eval(a))
						}
						if !w.isZero() {
							sel := ast.Unparen(st.Fun).(*ast.SelectorExpr)
							changed = assignTo(sel.X, buildOf(w, "string builder")) || changed
						}
					}
				}
			}
			return true
		})
		if !changed {
			break
		}
	}

	// Result summary: join every return site per result index. Bare
	// returns with named results read the result vars.
	sum := &taintSummary{rets: make([]tval, sig.Results().Len())}
	namedResults := namedResultObjs(fi, info)
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		if _, isLit := n.(*ast.FuncLit); isLit {
			return false // a literal's returns are not this function's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		if len(ret.Results) == 0 {
			for i, obj := range namedResults {
				if obj != nil && i < len(sum.rets) {
					sum.rets[i] = joinTaint(sum.rets[i], vars[obj])
				}
			}
			return true
		}
		if len(ret.Results) == 1 && len(sum.rets) > 1 {
			if call, ok := ast.Unparen(ret.Results[0]).(*ast.CallExpr); ok {
				rets := callResults(call, info, prog, sums, eval, argVals, instantiate)
				for i := range sum.rets {
					if i < len(rets) {
						sum.rets[i] = joinTaint(sum.rets[i], rets[i])
					}
				}
				return true
			}
		}
		for i, res := range ret.Results {
			if i < len(sum.rets) {
				sum.rets[i] = joinTaint(sum.rets[i], eval(res))
			}
		}
		return true
	})

	// Sink scan: direct sinks in this body, plus callee obligations.
	ast.Inspect(fi.Decl.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if qarg, sinkName, isSink := sqlSinkArg(info, call); isSink {
			v := eval(qarg)
			if v.konst >= taintBuilt && rep != nil {
				rep(call.Pos(), placeholderFix(fi, call, qarg),
					"query string for %s is built with %s from request/tenant input; bind values with ? placeholders instead",
					sinkName, orUnknown(v.via, "string assembly"))
			}
			if len(v.deps) > 0 {
				sum.sinks = append(sum.sinks, taintObligation{deps: v.deps, path: sinkName, pos: call.Pos()})
			}
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil || callee == fi.Obj {
			return true
		}
		csum, ok := sums[callee]
		if !ok {
			return true
		}
		calleeName := qualifiedName(callee)
		for _, ob := range csum.sinks {
			if strings.Contains(ob.path, fnName+" → ") {
				continue // recursion guard on witness paths
			}
			av := argVals(call, callee)
			v := instantiate(tval{deps: ob.deps}, av, calleeName)
			path := calleeName + " → " + ob.path
			if len(path) > 200 {
				path = path[:200] + "…"
			}
			if v.konst >= taintBuilt && rep != nil {
				rep(call.Pos(), nil,
					"request/tenant input passed to %s reaches %s as a Sprintf/concat-built query string; bind values with ? placeholders instead",
					calleeName, path)
			}
			if len(v.deps) > 0 {
				sum.sinks = append(sum.sinks, taintObligation{deps: v.deps, path: path, pos: call.Pos()})
			}
		}
		return true
	})
	// Keep sink obligations bounded and deterministic.
	if len(sum.sinks) > 32 {
		sum.sinks = sum.sinks[:32]
	}
	return sum
}

// evalCall computes the taint of a call expression's first result.
func evalCall(call *ast.CallExpr, eval func(ast.Expr) tval, info *types.Info, prog *Program,
	sums map[*types.Func]*taintSummary,
	argVals func(*ast.CallExpr, *types.Func) []tval,
	instantiate func(tval, []tval, string) tval) tval {
	// Type conversions pass taint through (string(b), MyString(s)).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		return eval(call.Args[0])
	}
	obj := calleeObj(info, call)
	name := qualifiedName(obj)
	if stringBuilders[name] {
		var v tval
		for _, a := range call.Args {
			v = joinTaint(v, eval(a))
		}
		return buildOf(v, name)
	}
	if stringPassers[name] {
		var v tval
		for _, a := range call.Args {
			v = joinTaint(v, eval(a))
		}
		return v
	}
	if fn, ok := obj.(*types.Func); ok {
		if sum, ok := sums[fn]; ok && len(sum.rets) > 0 {
			return instantiate(sum.rets[0], argVals(call, fn), qualifiedName(fn))
		}
	}
	// Unknown callee: method results inherit the receiver's taint
	// (url.Values.Get, strings.Builder.String, ...).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isSel := info.Selections[sel]; isSel {
			return eval(sel.X)
		}
	}
	return tval{}
}

// callResults computes per-result taints for a (possibly multi-value)
// call.
func callResults(call *ast.CallExpr, info *types.Info, prog *Program,
	sums map[*types.Func]*taintSummary, eval func(ast.Expr) tval,
	argVals func(*ast.CallExpr, *types.Func) []tval,
	instantiate func(tval, []tval, string) tval) []tval {
	if fn, ok := calleeObj(info, call).(*types.Func); ok {
		if sum, ok := sums[fn]; ok {
			av := argVals(call, fn)
			out := make([]tval, len(sum.rets))
			for i, r := range sum.rets {
				out[i] = instantiate(r, av, qualifiedName(fn))
			}
			return out
		}
	}
	return []tval{evalCall(call, eval, info, prog, sums, argVals, instantiate)}
}

// namedResultObjs maps result indices to their named vars, nil when
// unnamed.
func namedResultObjs(fi *FuncInfo, info *types.Info) []types.Object {
	if fi.Decl.Type.Results == nil {
		return nil
	}
	var out []types.Object
	for _, field := range fi.Decl.Type.Results.List {
		if len(field.Names) == 0 {
			out = append(out, nil)
			continue
		}
		for _, name := range field.Names {
			out = append(out, info.Defs[name])
		}
	}
	return out
}

// addrOperand matches &ident and returns the identifier.
func addrOperand(e ast.Expr) (*ast.Ident, bool) {
	u, ok := ast.Unparen(e).(*ast.UnaryExpr)
	if !ok || u.Op != token.AND {
		return nil, false
	}
	id, ok := ast.Unparen(u.X).(*ast.Ident)
	return id, ok
}

func isStringish(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func orUnknown(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

// placeholderFix builds the mechanical rewrite for a sink whose query
// argument is a direct fmt.Sprintf call with only plain verbs: the
// format string becomes a ? placeholder query and the formatted values
// move to bind arguments. Returns nil when the rewrite is not purely
// mechanical (flags, %q, computed formats, existing bind args that the
// rewrite would reorder).
func placeholderFix(fi *FuncInfo, sink *ast.CallExpr, qarg ast.Expr) *SuggestedFix {
	info := fi.Pkg.Info
	call, ok := ast.Unparen(qarg).(*ast.CallExpr)
	if !ok {
		return nil
	}
	if qualifiedName(calleeObj(info, call)) != "fmt.Sprintf" || len(call.Args) < 2 {
		return nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return nil
	}
	// Only rewrite when the sink call has no other bind args after the
	// query (appending ours must not reorder existing placeholders).
	if sink.Args[len(sink.Args)-1] != qarg {
		return nil
	}
	src := lit.Value // quoted source text
	var out []byte
	verbs := 0
	for i := 0; i < len(src); i++ {
		if src[i] != '%' {
			out = append(out, src[i])
			continue
		}
		if i+1 >= len(src) {
			return nil
		}
		switch src[i+1] {
		case '%':
			out = append(out, '%', '%')
			i++
		case 's', 'd', 'v', 'f':
			// A SQL-quoted verb ('%s') loses its quotes: the value is bound,
			// not spliced into the literal syntax.
			if len(out) > 0 && out[len(out)-1] == '\'' && i+2 < len(src) && src[i+2] == '\'' {
				out = out[:len(out)-1]
				i++
			}
			out = append(out, '?')
			verbs++
			i++
		default:
			return nil // flags, widths, %q, ...: not mechanical
		}
	}
	if verbs != len(call.Args)-1 {
		return nil
	}
	var parts []string
	parts = append(parts, string(out))
	for _, a := range call.Args[1:] {
		var sb strings.Builder
		if err := printer.Fprint(&sb, fi.Pkg.Fset, a); err != nil {
			return nil
		}
		parts = append(parts, sb.String())
	}
	return &SuggestedFix{
		Message: "rewrite Sprintf-built query to ? placeholders with bind arguments",
		Edits: []TextEdit{
			editAt(fi.Pkg.Fset, qarg.Pos(), qarg.End(), strings.Join(parts, ", ")),
		},
	}
}
