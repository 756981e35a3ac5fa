// Package app is the caller half of the sqltaint fixture: request
// parameters flow into query strings locally, through struct fields,
// and across the package boundary into sqlbuild.
package app

import (
	"fmt"
	"net/http"

	"github.com/odbis/odbis/internal/analysis/testdata/src/sqltaint/sqlbuild"
	"github.com/odbis/odbis/internal/sql"
)

// HandleDirect builds the query locally with Sprintf.
func HandleDirect(w http.ResponseWriter, r *http.Request, db *sql.DB) {
	q := fmt.Sprintf("SELECT * FROM orders WHERE region = '%s'", r.FormValue("region"))
	db.Query(q) // want `built with fmt.Sprintf from request/tenant input`
}

// HandleInline passes the Sprintf straight to the sink: this shape also
// carries the mechanical placeholder fix.
func HandleInline(r *http.Request, db *sql.DB) {
	db.Query(fmt.Sprintf("SELECT id FROM orders WHERE region = '%s'", r.FormValue("region"))) // want `built with fmt.Sprintf`
}

// HandleCross proves the cross-package flow: the query is assembled
// inside sqlbuild.WhereName, two hops from the request parameter.
func HandleCross(r *http.Request, db *sql.DB) {
	q := sqlbuild.WhereName(r.URL.Query().Get("name"))
	db.Query(q) // want `built with fmt.Sprintf`
}

// HandleObligation proves sink obligations: the sink lives inside
// sqlbuild.Run; the finding surfaces here, where the tainted argument
// enters the chain.
func HandleObligation(r *http.Request, db *sql.DB) {
	sqlbuild.Run(db, r.FormValue("id")) // want `reaches sqlbuild.Run → sql.DB.Query`
}

// reportReq mimics a decoded request body: assigning a tainted string
// to a field taints the value.
type reportReq struct {
	Table string
}

// HandleStruct proves coarse struct-field propagation.
func HandleStruct(r *http.Request, db *sql.DB) {
	var req reportReq
	req.Table = r.FormValue("t")
	q := "SELECT * FROM " + req.Table
	db.Query(q) // want `built with string concatenation`
}

// HandlePlaceholder binds the value: the query literal is clean.
func HandlePlaceholder(r *http.Request, db *sql.DB) {
	db.Query("SELECT * FROM orders WHERE region = ?", r.FormValue("region")) // ok: bound parameter
}

// HandleRaw passes the request string through unformatted: the SQL text
// IS the request in this product, so this stays silent.
func HandleRaw(r *http.Request, db *sql.DB) {
	db.Query(r.FormValue("q")) // ok: raw, not assembled
}

// HandleConst formats only constants: derived from nothing tainted.
func HandleConst(db *sql.DB) {
	q := fmt.Sprintf("SELECT * FROM shard_%d", 7)
	db.Query(q) // ok: no request/tenant input involved
}

// HandleSuppressed shows the justified-suppression escape hatch.
func HandleSuppressed(r *http.Request, db *sql.DB) {
	q := "SELECT * FROM audit WHERE user = '" + r.FormValue("u") + "'"
	db.Query(q) //odbis:ignore sqltaint -- fixture: demonstrates justified suppression
}

// HandlePrepared reaches the statement path's single entry point: the
// text Prepare parses is the sink, whichever front door called it.
func HandlePrepared(r *http.Request, db *sql.DB) {
	db.Prepare("", "SELECT * FROM orders WHERE region = '"+r.FormValue("region")+"'", nil) // want `built with string concatenation`
}
