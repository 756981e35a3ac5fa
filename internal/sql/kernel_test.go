package sql

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"github.com/odbis/odbis/internal/storage"
)

// The differential test below runs grouped aggregates and simple
// comparisons over seeded random tables and checks every answer, error
// messages included, against a plain Go oracle over the same rows.

// kRow is one row of the random table t(k1 TEXT, k2 INT, i INT,
// f FLOAT, s TEXT); nil is NULL.
type kRow [5]storage.Value

const (
	kK1, kK2, kI, kF, kS = 0, 1, 2, 3, 4
)

var kColNames = []string{"k1", "k2", "i", "f", "s"}

func randTable(rng *rand.Rand) []kRow {
	null := func(v storage.Value) storage.Value {
		if rng.Intn(7) == 0 {
			return nil
		}
		return v
	}
	// A few integers sit at and beyond 2^53, where float64 stops being
	// exact, so the typed comparison must agree with storage.Compare.
	ints := []int64{-3, -1, 0, 1, 2, 5, 7, 40, 1 << 53, 1<<53 + 1, -(1<<53 + 1)}
	rows := make([]kRow, rng.Intn(700))
	for r := range rows {
		rows[r] = kRow{
			null([]string{"north", "south", "east", ""}[rng.Intn(4)]),
			null(int64(rng.Intn(3))),
			null(ints[rng.Intn(len(ints))]),
			null(float64(rng.Intn(200)-100) / 8),
			null([]string{"a", "b", "c", "d", "e"}[rng.Intn(5)]),
		}
	}
	return rows
}

// oracleAgg computes one aggregate over the rows of a group the way
// SQL defines it; a non-nil error is the message the engine must give.
func oracleAgg(fn string, distinct bool, col int, rows []kRow) (storage.Value, error) {
	if col < 0 {
		return int64(len(rows)), nil
	}
	var vals []storage.Value
	seen := map[string]bool{}
	for _, r := range rows {
		v := r[col]
		if v == nil {
			continue
		}
		if distinct {
			k := storage.EncodeKey(v)
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}
	switch fn {
	case "COUNT":
		return int64(len(vals)), nil
	case "SUM", "AVG":
		var si int64
		var sf float64
		isFloat := false
		for _, v := range vals {
			switch x := v.(type) {
			case int64:
				si += x
				sf += float64(x)
			case float64:
				isFloat = true
				sf += x
			default:
				return nil, fmt.Errorf("sql: %s requires numeric values, got %T", fn, v)
			}
		}
		switch {
		case len(vals) == 0:
			return nil, nil
		case fn == "AVG":
			return sf / float64(len(vals)), nil
		case isFloat:
			return sf, nil
		}
		return si, nil
	default: // MIN, MAX
		var best storage.Value
		for _, v := range vals {
			c := 0
			if best != nil {
				c = storage.Compare(v, best)
			}
			if best == nil || (fn == "MIN" && c < 0) || (fn == "MAX" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
}

// oracleCmp evaluates `l op r` in three-valued logic as a filter.
func oracleCmp(l storage.Value, op string, r storage.Value) (bool, error) {
	if l == nil || r == nil {
		return false, nil
	}
	num := func(x storage.Value) bool {
		_, i := x.(int64)
		_, f := x.(float64)
		return i || f
	}
	if fmt.Sprintf("%T", l) != fmt.Sprintf("%T", r) && !(num(l) && num(r)) {
		return false, fmt.Errorf("sql: cannot compare %T with %T", l, r)
	}
	c := storage.Compare(l, r)
	switch op {
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
}

type kAgg struct {
	fn       string
	distinct bool
	col      int // -1 for COUNT(*)
}

func (a kAgg) sql() string {
	switch {
	case a.col < 0:
		return "COUNT(*)"
	case a.distinct:
		return a.fn + "(DISTINCT " + kColNames[a.col] + ")"
	}
	return a.fn + "(" + kColNames[a.col] + ")"
}

// oracleGrouped answers SELECT keys..., aggs... FROM t [WHERE filter]
// GROUP BY keys as canonical row strings, or the error the engine must
// report.
func oracleGrouped(rows []kRow, keys []int, aggs []kAgg, filter func(kRow) (bool, error)) ([]string, error) {
	var order []string
	groups := map[string][]kRow{}
	for _, r := range rows {
		if filter != nil {
			ok, err := filter(r)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		kv := make([]storage.Value, len(keys))
		for i, k := range keys {
			kv[i] = r[k]
		}
		gk := storage.EncodeKey(kv...)
		if _, ok := groups[gk]; !ok {
			order = append(order, gk)
		}
		groups[gk] = append(groups[gk], r)
	}
	if len(keys) == 0 && len(order) == 0 {
		order = append(order, "")
	}
	var out []storage.Row
	// Failing aggregates run alone, so any failure is the answer.
	for _, a := range aggs {
		for _, gk := range order {
			if _, err := oracleAgg(a.fn, a.distinct, a.col, groups[gk]); err != nil {
				return nil, err
			}
		}
	}
	for _, gk := range order {
		g := groups[gk]
		var row storage.Row
		for _, k := range keys {
			row = append(row, g[0][k])
		}
		for _, a := range aggs {
			v, _ := oracleAgg(a.fn, a.distinct, a.col, g)
			row = append(row, v)
		}
		out = append(out, row)
	}
	return canonRows(out), nil
}

// canonRows renders rows as sorted strings, floats rounded so that a
// different summation order cannot make equal answers differ.
func canonRows(rows []storage.Row) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		parts := make([]string, len(r))
		for j, v := range r {
			if f, ok := v.(float64); ok {
				parts[j] = "f:" + strings.TrimRight(fmt.Sprintf("%.9g", math.Round(f*1e6)/1e6), ".")
				continue
			}
			parts[j] = fmt.Sprintf("%T:%s", v, storage.FormatValue(v))
		}
		out[i] = strings.Join(parts, "|")
	}
	sort.Strings(out)
	return out
}

func TestKernelsMatchOracle(t *testing.T) {
	aggs := []kAgg{{fn: "COUNT", col: -1}}
	for _, col := range []int{kI, kF, kS} {
		for _, fn := range []string{"COUNT", "SUM", "AVG", "MIN", "MAX"} {
			aggs = append(aggs, kAgg{fn: fn, col: col})
		}
		aggs = append(aggs, kAgg{fn: "COUNT", distinct: true, col: col}, kAgg{fn: "SUM", distinct: true, col: col})
	}
	keySets := [][]int{{kK1}, {kK2}, {kK1, kK2}, {}}
	ops := []string{"=", "<>", "<", "<=", ">", ">="}
	args := []storage.Value{int64(2), int64(-1), int64(1 << 53), int64(1<<53 + 1), 1.5, "b", nil}

	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		rows := randTable(rng)
		e := storage.MustOpenMemory()
		db := NewDB(e)
		mustExec(t, db, "CREATE TABLE t (k1 TEXT, k2 INT, i INT, f FLOAT, s TEXT)")
		err := e.Update(func(tx *storage.Tx) error {
			for _, r := range rows {
				if _, err := tx.Insert("t", storage.Row(r[:])); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}

		check := func(q string, qargs []storage.Value, want []string, wantErr error) {
			t.Helper()
			res, err := db.Query(q, qargs...)
			switch {
			case wantErr != nil:
				if err == nil || err.Error() != wantErr.Error() {
					t.Errorf("seed %d: Query(%q, %v) error = %v, want %v", seed, q, qargs, err, wantErr)
				}
			case err != nil:
				t.Errorf("seed %d: Query(%q, %v): %v", seed, q, qargs, err)
			default:
				if got := canonRows(res.Rows); strings.Join(got, "\n") != strings.Join(want, "\n") {
					t.Errorf("seed %d: Query(%q, %v)\n got %v\nwant %v", seed, q, qargs, got, want)
				}
			}
		}

		// Grouped aggregates: each aggregate on its own (so one failing
		// aggregate does not mask the others) and all numeric-safe ones
		// together.
		for _, keys := range keySets {
			var keyNames []string
			for _, k := range keys {
				keyNames = append(keyNames, kColNames[k])
			}
			grouped := func(as []kAgg, where string, filter func(kRow) (bool, error), qargs []storage.Value) {
				items := append([]string(nil), keyNames...)
				for _, a := range as {
					items = append(items, a.sql())
				}
				q := "SELECT " + strings.Join(items, ", ") + " FROM t" + where
				if len(keys) > 0 {
					q += " GROUP BY " + strings.Join(keyNames, ", ")
				}
				want, wantErr := oracleGrouped(rows, keys, as, filter)
				check(q, qargs, want, wantErr)
			}
			var safe []kAgg
			for _, a := range aggs {
				grouped([]kAgg{a}, "", nil, nil)
				if a.col != kS || (a.fn != "SUM" && a.fn != "AVG") {
					safe = append(safe, a)
				}
			}
			grouped(safe, "", nil, nil)
			// A filtered grouped count, the dashboard's shape.
			for _, arg := range args {
				arg := arg
				filter := func(r kRow) (bool, error) { return oracleCmp(r[kI], ">", arg) }
				grouped([]kAgg{{fn: "COUNT", col: -1}, {fn: "SUM", col: kI}}, " WHERE i > ?", filter, []storage.Value{arg})
			}
		}

		// Plain filters, both operand orders, on an int and a float column.
		for _, col := range []int{kI, kF} {
			name := kColNames[col]
			for _, op := range ops {
				for _, arg := range args {
					for _, flipped := range []bool{false, true} {
						q := "SELECT k1, " + name + " FROM t WHERE " + name + " " + op + " ?"
						cmp := func(v storage.Value) (bool, error) { return oracleCmp(v, op, arg) }
						if flipped {
							q = "SELECT k1, " + name + " FROM t WHERE ? " + flipOp(op) + " " + name
							cmp = func(v storage.Value) (bool, error) { return oracleCmp(arg, flipOp(op), v) }
						}
						var want []storage.Row
						var wantErr error
						for _, r := range rows {
							ok, err := cmp(r[col])
							if err != nil {
								wantErr = err
								break
							}
							if ok {
								want = append(want, storage.Row{r[kK1], r[col]})
							}
						}
						check(q, []storage.Value{arg}, canonRows(want), wantErr)
					}
				}
			}
			// An int literal operand takes the same kernel as a placeholder.
			var want []storage.Row
			for _, r := range rows {
				if ok, _ := oracleCmp(r[col], "<=", int64(5)); ok {
					want = append(want, storage.Row{r[kK1], r[col]})
				}
			}
			check("SELECT k1, "+name+" FROM t WHERE "+name+" <= 5", nil, canonRows(want), nil)
		}
		e.Close()
	}
}
