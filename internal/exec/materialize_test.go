package exec

import (
	"testing"

	"repro/internal/shapley"
	"repro/internal/table"
)

func diffFixture() []table.CellDiff {
	return []table.CellDiff{
		{Ref: table.CellRef{Row: 1, Col: 2}, Dirty: table.String("a"), Clean: table.String("b")},
		{Ref: table.CellRef{Row: 3, Col: 0}, Dirty: table.Int(1), Clean: table.Int(2)},
	}
}

func TestRepairCacheRoundTrip(t *testing.T) {
	c := NewRepairCache()
	if _, ok := c.Lookup("d", 7); ok {
		t.Fatal("empty cache must miss")
	}
	in := diffFixture()
	c.Store("d", 7, in)
	got, ok := c.Lookup("d", 7)
	if !ok {
		t.Fatal("stored entry must hit")
	}
	if len(got) != len(in) {
		t.Fatalf("got %d diffs, want %d", len(got), len(in))
	}
	for i := range in {
		if got[i] != in[i] {
			t.Fatalf("diff %d: got %+v want %+v", i, got[i], in[i])
		}
	}
	// The stored diff is a copy: mutating the caller's slice must not leak.
	in[0].Clean = table.String("corrupted")
	got, _ = c.Lookup("d", 7)
	if got[0].Clean.String() == "corrupted" {
		t.Fatal("cache must own a copy of the stored diff")
	}
}

func TestRepairCacheGenerationMismatch(t *testing.T) {
	c := NewRepairCache()
	c.Store("d", 7, diffFixture())
	if _, ok := c.Lookup("d", 8); ok {
		t.Fatal("newer generation must miss")
	}
	if _, ok := c.Lookup("d", 6); ok {
		t.Fatal("older generation must miss")
	}
	// A store at the new generation overwrites the descriptor's entry.
	c.Store("d", 8, nil)
	if got, ok := c.Lookup("d", 8); !ok || len(got) != 0 {
		t.Fatalf("overwritten entry: ok=%v diffs=%v", ok, got)
	}
	if _, ok := c.Lookup("d", 7); ok {
		t.Fatal("old generation entry must be gone after overwrite")
	}
}

func TestRepairCacheClearAndStats(t *testing.T) {
	c := NewRepairCache()
	c.Store("d", 1, diffFixture())
	if _, ok := c.Lookup("d", 1); !ok {
		t.Fatal("want hit")
	}
	c.Clear()
	if _, ok := c.Lookup("d", 1); ok {
		t.Fatal("cleared cache must miss")
	}
	hits, misses := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats = (%d, %d), want (1, 1)", hits, misses)
	}
}

func TestRepairCacheBounded(t *testing.T) {
	c := NewRepairCache()
	for i := 0; i < maxRepairEntries+5; i++ {
		c.Store(string(rune('a'))+string(rune(i)), 1, nil)
	}
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n > maxRepairEntries {
		t.Fatalf("cache grew to %d entries, cap is %d", n, maxRepairEntries)
	}
}

func TestRepairCacheNilSafe(t *testing.T) {
	var c *RepairCache
	if _, ok := c.Lookup("d", 1); ok {
		t.Fatal("nil cache must miss")
	}
	c.Store("d", 1, diffFixture()) // must not panic
	c.Clear()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("nil cache stats = (%d, %d)", h, m)
	}
}

func TestEngineRepairTargets(t *testing.T) {
	e := NewEngine(1)
	rc := e.RepairTargets()
	if rc == nil {
		t.Fatal("engine must carry a repair cache")
	}
	rc.Store("d", 3, diffFixture())
	e.InvalidateCache()
	if _, ok := rc.Lookup("d", 3); ok {
		t.Fatal("InvalidateCache must drop repair-target entries")
	}
}

func TestBindingNilSafe(t *testing.T) {
	var b *Binding
	if _, _, ok := b.Lookup([]uint64{1}); ok {
		t.Fatal("nil binding must miss")
	}
	b.Store(1, []uint64{1}, 1) // must not panic
}

func TestBindingSharesCacheWithCachedGame(t *testing.T) {
	e := NewEngine(1)
	gen := func() uint64 { return 42 }
	b := e.Bind("game", gen)
	coalition := shapley.AppendPacked(nil, []bool{true, false, true})
	if _, _, ok := b.Lookup(coalition); ok {
		t.Fatal("fresh binding must miss")
	}
	_, g, _ := b.Lookup(coalition)
	b.Store(g, coalition, 0.5)
	if v, _, ok := b.Lookup(coalition); !ok || v != 0.5 {
		t.Fatalf("binding lookup after store = (%v, %v)", v, ok)
	}
	// A second binding for the same descriptor sees the same entries.
	b2 := e.Bind("game", gen)
	if v, _, ok := b2.Lookup(coalition); !ok || v != 0.5 {
		t.Fatalf("re-bound lookup = (%v, %v), want shared hit", v, ok)
	}
	// A different descriptor must not.
	b3 := e.Bind("other", gen)
	if _, _, ok := b3.Lookup(coalition); ok {
		t.Fatal("distinct descriptor must not share coalition values")
	}
	// A generation move invalidates.
	moved := e.Bind("game", func() uint64 { return 43 })
	if _, _, ok := moved.Lookup(coalition); ok {
		t.Fatal("generation bump must invalidate")
	}
}

func TestBindingStaleStoreDropped(t *testing.T) {
	e := NewEngine(1)
	cur := uint64(10)
	b := e.Bind("game", func() uint64 { return cur })
	coalition := []uint64{1}
	_, gen, _ := b.Lookup(coalition)
	// A table edit lands while the value is being computed.
	cur = 11
	b.Store(gen, coalition, 0.25)
	if _, _, ok := b.Lookup(coalition); ok {
		t.Fatal("store stamped with a stale generation must be dropped")
	}
}
