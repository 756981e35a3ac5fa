package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"github.com/odbis/odbis/internal/sql"
	"github.com/odbis/odbis/internal/storage"
)

// TestMixStatementsExecute runs the full mix — setup plus a few hundred
// drawn statements — against a real engine, proving every statement the
// load harness can emit is valid SQL over the schema SetupStmts creates.
func TestMixStatementsExecute(t *testing.T) {
	e := storage.MustOpenMemory()
	t.Cleanup(func() { e.Close() })
	db := sql.NewDB(e)
	m := Mix{WritePct: 30}
	rng := rand.New(rand.NewSource(42))
	for _, s := range m.SetupStmts(rng, 50) {
		if _, err := db.Query(s.SQL, s.Args...); err != nil {
			t.Fatalf("setup %q: %v", s.SQL, err)
		}
	}
	writes := 0
	for i := 0; i < 400; i++ {
		s := m.Next(rng)
		if s.Write {
			writes++
		}
		if _, err := db.Query(s.SQL, s.Args...); err != nil {
			t.Fatalf("mix stmt %q args %v: %v", s.SQL, s.Args, err)
		}
	}
	// 30% of 400 draws: well within [60, 180] unless the draw is broken.
	if writes < 60 || writes > 180 {
		t.Fatalf("writes = %d of 400, want ~120", writes)
	}
}

// TestMixDeterministic pins that the same seed replays the same
// statement sequence — what makes the harness A/B comparison fair.
func TestMixDeterministic(t *testing.T) {
	draw := func(seed int64) []string {
		m := Mix{}
		rng := rand.New(rand.NewSource(seed))
		var out []string
		for _, s := range m.SetupStmts(rng, 10) {
			out = append(out, fmt.Sprint(s.SQL, s.Args))
		}
		for i := 0; i < 100; i++ {
			s := m.Next(rng)
			out = append(out, fmt.Sprint(s.SQL, s.Args))
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Fatal("same seed produced different sequences")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Fatal("different seeds produced identical sequences")
	}
}

// TestMixWritePctBounds documents the WritePct contract: the zero
// value draws no writes, a negative value counts as 0, and 20 draws
// about one write in five.
func TestMixWritePctBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	writes := 0
	for i := 0; i < 1000; i++ {
		if (Mix{WritePct: 20}).Next(rng).Write {
			writes++
		}
	}
	if writes < 100 || writes > 320 {
		t.Fatalf("WritePct 20 write draws = %d of 1000, want ~200", writes)
	}
	for _, pct := range []int{0, -1} {
		for i := 0; i < 200; i++ {
			if (Mix{WritePct: pct}).Next(rng).Write {
				t.Fatalf("WritePct %d must draw no writes", pct)
			}
		}
	}
}
