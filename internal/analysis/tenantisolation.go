package analysis

import (
	"go/ast"
	"strings"
)

// TenantIsolation guards the paper's §2 isolation claim: "one database
// is used to store all customers' data", kept logically separate only
// because every access flows through tenant.Catalog's logical→physical
// table-name rewrite. Code that addresses engine tables by string
// literal bypasses that rewrite, so outside the packages that own the
// physical namespace (tenant, storage, sql) any such call is flagged:
//
//   - storage.Engine / storage.Tx methods taking a table name
//   - sql.DB query/exec entry points given literal SQL
//   - orm.NewMapper bound to a literal physical table
//
// Table names reaching these calls through variables are assumed to come
// from Catalog.Physical, which is the sanctioned hand-off for substrates
// (ETL sinks, cube builds) that address the engine directly. Platform
// metadata tables (service registries, security principals) are
// intentional physical tables; mark those call sites with
// //odbis:ignore tenantisolation -- <why this table is platform-owned>.
var TenantIsolation = &Analyzer{
	Name: "tenantisolation",
	Doc:  "flag literal physical-table access that bypasses the tenant Catalog rewrite",
	Run:  runTenantIsolation,
}

// tenantAllowedGroups own the physical namespace or implement the
// rewrite itself; bench is the load harness that measures raw engine
// throughput on purpose.
var tenantAllowedGroups = map[string]bool{
	"tenant":  true,
	"storage": true,
	"sql":     true,
	"bench":   true,
}

// engineTableMethods are storage.Engine methods whose string argument
// names a physical table.
var engineTableMethods = map[string]bool{
	"DropTable": true,
	"HasTable":  true,
	"Schema":    true,
	"Indexes":   true,
	"DropIndex": true,
}

// txTableMethods are storage.Tx methods whose first string argument
// names a physical table.
var txTableMethods = map[string]bool{
	"Insert": true, "InsertMap": true, "DeleteRID": true, "UpdateRID": true,
	"Get": true, "Scan": true, "LookupEqual": true, "ScanRange": true, "Count": true,
}

// dbQueryMethods are sql.DB entry points that parse raw SQL, where
// literal statements would carry un-rewritten table names.
var dbQueryMethods = map[string]bool{
	"Query": true, "QueryContext": true, "Exec": true, "ExecContext": true, "Prepare": true,
}

func runTenantIsolation(pass *Pass) {
	if tenantAllowedGroups[groupOf(pass.Path())] {
		return
	}
	const storagePath = "github.com/odbis/odbis/internal/storage"
	const sqlPath = "github.com/odbis/odbis/internal/sql"
	for _, f := range pass.Files() {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if recv := methodReceiverType(pass.TypesInfo(), call); recv != nil {
				sel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
				name := sel.Sel.Name
				switch {
				case isNamed(recv, storagePath, "Engine") && engineTableMethods[name],
					isNamed(recv, storagePath, "Tx") && txTableMethods[name]:
					if len(call.Args) > 0 {
						if tbl, ok := stringLiteral(pass.TypesInfo(), call.Args[0]); ok {
							pass.Reportf(call.Pos(),
								"direct engine access to physical table %q bypasses the tenant Catalog rewrite; use tenant.Catalog (or Catalog.Physical for substrates)",
								tbl)
						}
					}
				case isNamed(recv, sqlPath, "DB") && dbQueryMethods[name]:
					for _, arg := range call.Args {
						if stmt, ok := stringLiteral(pass.TypesInfo(), arg); ok && looksLikeSQL(stmt) {
							pass.Reportf(call.Pos(),
								"raw sql.DB.%s with literal statement bypasses the tenant Catalog rewrite; use Catalog.Query/Exec",
								name)
							break
						}
					}
				}
				return true
			}
			// orm.NewMapper[T](engine, "table") binds a mapper to a
			// literal physical table.
			if obj := calleeObj(pass.TypesInfo(), call); obj != nil && obj.Name() == "NewMapper" &&
				obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/storage/orm") {
				if len(call.Args) >= 2 {
					if tbl, ok := stringLiteral(pass.TypesInfo(), call.Args[1]); ok {
						pass.Reportf(call.Pos(),
							"orm.NewMapper binds literal physical table %q outside the tenant namespace owners",
							tbl)
					}
				}
			}
			return true
		})
	}
}

// looksLikeSQL filters sql.DB string arguments down to ones that start
// with a statement keyword, so helper strings bound as values don't
// trip the check.
func looksLikeSQL(s string) bool {
	s = strings.ToUpper(strings.TrimSpace(s))
	for _, kw := range []string{"SELECT", "INSERT", "UPDATE", "DELETE", "CREATE", "DROP"} {
		if strings.HasPrefix(s, kw) {
			return true
		}
	}
	return false
}
