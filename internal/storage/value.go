// Package storage implements the embedded relational engine that backs the
// ODBIS platform. It is the stand-in for the PostgreSQL instance of the
// paper's technical-resources layer (Fig. 5): a durable, transactional,
// indexed store shared by every tenant of the platform.
//
// The engine provides:
//
//   - typed heap tables with NOT NULL / DEFAULT / PRIMARY KEY constraints,
//   - multi-version concurrency control with snapshot-isolation
//     transactions and first-updater-wins conflict detection,
//   - secondary indexes (hash for equality, B-tree for ranges),
//   - a write-ahead log with configurable durability plus checkpoint
//     snapshots for crash recovery.
//
// All state lives in memory; durability is via the WAL and snapshots under
// the engine directory. An engine opened with an empty directory is purely
// in memory, which the test suite and benchmarks use extensively.
package storage

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Type identifies the declared type of a column.
type Type uint8

// Column types supported by the engine.
const (
	TypeInvalid Type = iota
	TypeInt          // int64
	TypeFloat        // float64
	TypeString       // string
	TypeBool         // bool
	TypeTime         // time.Time (stored UTC, microsecond precision)
	TypeBytes        // []byte
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeString:
		return "TEXT"
	case TypeBool:
		return "BOOL"
	case TypeTime:
		return "TIMESTAMP"
	case TypeBytes:
		return "BYTES"
	default:
		return "INVALID"
	}
}

// ParseType maps a type name (case-insensitive, with common SQL aliases)
// to a Type. It reports false for unknown names.
func ParseType(name string) (Type, bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "INT", "INTEGER", "BIGINT", "SMALLINT", "SERIAL":
		return TypeInt, true
	case "FLOAT", "DOUBLE", "REAL", "DECIMAL", "NUMERIC":
		return TypeFloat, true
	case "TEXT", "STRING", "VARCHAR", "CHAR":
		return TypeString, true
	case "BOOL", "BOOLEAN":
		return TypeBool, true
	case "TIMESTAMP", "DATETIME", "DATE", "TIME":
		return TypeTime, true
	case "BYTES", "BLOB", "BYTEA":
		return TypeBytes, true
	default:
		return TypeInvalid, false
	}
}

// Value is a single cell value. The dynamic type is one of:
//
//	nil (SQL NULL), int64, float64, string, bool, time.Time, []byte
//
// Every function in this package that accepts a Value normalizes Go
// integers and float32 through Normalize first.
type Value any

// Normalize widens native Go numeric types to the canonical dynamic types
// used by the engine (int64, float64) and converts time values to UTC.
// Unknown dynamic types are returned unchanged and rejected later by
// CheckValue. Values that are already canonical come back as the same
// interface value, so normalizing in a per-row loop does not allocate.
func Normalize(v Value) Value {
	switch x := v.(type) {
	case nil, int64, float64:
		return v
	case int:
		return int64(x)
	case int8:
		return int64(x)
	case int16:
		return int64(x)
	case int32:
		return int64(x)
	case uint:
		return int64(x)
	case uint8:
		return int64(x)
	case uint16:
		return int64(x)
	case uint32:
		return int64(x)
	case uint64:
		return int64(x)
	case float32:
		return float64(x)
	case time.Time:
		return x.UTC().Truncate(time.Microsecond)
	default:
		return v
	}
}

// TypeOf reports the engine type of a (normalized) value. NULL has no type
// and reports TypeInvalid with ok=false.
func TypeOf(v Value) (Type, bool) {
	switch v.(type) {
	case int64:
		return TypeInt, true
	case float64:
		return TypeFloat, true
	case string:
		return TypeString, true
	case bool:
		return TypeBool, true
	case time.Time:
		return TypeTime, true
	case []byte:
		return TypeBytes, true
	default:
		return TypeInvalid, false
	}
}

// CheckValue verifies that v (after Normalize) is storable in a column of
// type t. NULL is always storable at this level; NOT NULL is enforced by
// the table layer. Int values are accepted by FLOAT columns and widened.
func CheckValue(t Type, v Value) (Value, error) {
	v = Normalize(v)
	if v == nil {
		return nil, nil
	}
	vt, ok := TypeOf(v)
	if !ok {
		return nil, fmt.Errorf("storage: unsupported value type %T", v)
	}
	if vt == t {
		return v, nil
	}
	if t == TypeFloat && vt == TypeInt {
		return float64(v.(int64)), nil
	}
	return nil, fmt.Errorf("storage: cannot store %s value in %s column", vt, t)
}

// Compare orders two normalized values of the same engine type.
// NULL sorts before every non-NULL value. Comparing values of different
// non-NULL types follows a fixed type order so that heterogeneous keys
// still sort deterministically (int and float compare numerically).
func Compare(a, b Value) int {
	a, b = Normalize(a), Normalize(b)
	if a == nil || b == nil {
		switch {
		case a == nil && b == nil:
			return 0
		case a == nil:
			return -1
		default:
			return 1
		}
	}
	// Numeric cross-type comparison.
	af, aNum := asFloat(a)
	bf, bNum := asFloat(b)
	if aNum && bNum {
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		}
		// Equal as floats: ints and floats representing the same number
		// compare equal.
		return 0
	}
	ar, br := typeRank(a), typeRank(b)
	if ar != br {
		if ar < br {
			return -1
		}
		return 1
	}
	switch x := a.(type) {
	case string:
		return strings.Compare(x, b.(string))
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case !x:
			return -1
		default:
			return 1
		}
	case time.Time:
		y := b.(time.Time)
		switch {
		case x.Before(y):
			return -1
		case x.After(y):
			return 1
		default:
			return 0
		}
	case []byte:
		return strings.Compare(string(x), string(b.([]byte)))
	default:
		panic(fmt.Sprintf("storage: Compare on unsupported type %T", a))
	}
}

func asFloat(v Value) (float64, bool) {
	switch x := v.(type) {
	case int64:
		return float64(x), true
	case float64:
		return x, true
	default:
		return 0, false
	}
}

func typeRank(v Value) int {
	switch v.(type) {
	case int64, float64:
		return 1
	case string:
		return 2
	case bool:
		return 3
	case time.Time:
		return 4
	case []byte:
		return 5
	default:
		return 6
	}
}

// Equal reports whether two values compare equal under Compare.
func Equal(a, b Value) bool { return Compare(a, b) == 0 }

// FormatValue renders a value for human-readable output (reports, CLI,
// logs). NULL renders as the empty string placeholder "NULL".
func FormatValue(v Value) string {
	switch x := Normalize(v).(type) {
	case nil:
		return "NULL"
	case int64:
		return strconv.FormatInt(x, 10)
	case float64:
		if x == math.Trunc(x) && math.Abs(x) < 1e15 {
			return strconv.FormatFloat(x, 'f', 1, 64)
		}
		return strconv.FormatFloat(x, 'g', -1, 64)
	case string:
		return x
	case bool:
		return strconv.FormatBool(x)
	case time.Time:
		return x.Format(time.RFC3339)
	case []byte:
		return fmt.Sprintf("0x%x", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// EncodeKey produces an order-preserving string encoding of a tuple of
// values: for values a, b of the same type, Compare(a,b) < 0 iff
// EncodeKey(a) < EncodeKey(b) lexicographically. It is used as the key
// form for both hash and B-tree indexes.
func EncodeKey(vals ...Value) string {
	return string(AppendKey(nil, vals...))
}

// AppendKey appends the EncodeKey encoding of vals to dst and returns
// the extended slice. Hot loops encode into one reused buffer and probe
// maps with m[string(buf)], which the compiler performs without
// allocating.
func AppendKey(dst []byte, vals ...Value) []byte {
	for _, v := range vals {
		dst = appendKeyOne(dst, Normalize(v))
	}
	return dst
}

func appendKeyOne(dst []byte, v Value) []byte {
	switch x := v.(type) {
	case nil:
		return append(dst, 0x00)
	case int64:
		dst = appendOrderedFloat(append(dst, 0x01), float64(x))
		// Disambiguate ints that collide as floats (|x| >= 2^53): append
		// the exact decimal. Cheap and rare.
		if x > 1<<53 || x < -(1<<53) {
			dst = strconv.AppendInt(dst, x, 10)
		}
		return dst
	case float64:
		return appendOrderedFloat(append(dst, 0x01), x)
	case string:
		return appendEscaped(append(dst, 0x02), x)
	case bool:
		if x {
			return append(dst, 0x03, 1)
		}
		return append(dst, 0x03, 0)
	case time.Time:
		return binary.BigEndian.AppendUint64(append(dst, 0x04), uint64(x.UnixMicro())^(1<<63))
	case []byte:
		return appendEscaped(append(dst, 0x05), string(x))
	default:
		panic(fmt.Sprintf("storage: EncodeKey on unsupported type %T", v))
	}
}

// appendEscaped appends s with 0x00 escaped so that tuple components
// cannot bleed into each other, terminated by 0x00 0x01.
func appendEscaped(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c == 0x00 {
			dst = append(dst, 0x00, 0xFF)
		} else {
			dst = append(dst, c)
		}
	}
	return append(dst, 0x00, 0x01)
}

// appendOrderedFloat appends an 8-byte big-endian encoding of f whose
// lexicographic order matches numeric order (standard sign-flip trick).
func appendOrderedFloat(dst []byte, f float64) []byte {
	bits := math.Float64bits(f)
	if bits&(1<<63) != 0 {
		bits = ^bits
	} else {
		bits |= 1 << 63
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// Row is a tuple of values positionally aligned with a table's columns.
type Row []Value

// Clone returns a shallow copy of the row (values are immutable by
// convention, so a shallow copy is an independent row).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// SortRows orders rows by the given column positions; negative positions
// mean descending on column (-pos - 1).
func SortRows(rows []Row, keys []int) {
	sort.SliceStable(rows, func(i, j int) bool {
		for _, k := range keys {
			col, desc := k, false
			if k < 0 {
				col, desc = -k-1, true
			}
			c := Compare(rows[i][col], rows[j][col])
			if c == 0 {
				continue
			}
			if desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
}
