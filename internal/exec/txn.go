package exec

import (
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/faults"
	"repro/internal/shapley"
	"repro/internal/table"
)

// Txn is one explain's transactional view of the session's shared caches:
// every coalition value and repair diff the run computes is staged
// privately and only published to the shared CoalitionCache / RepairCache
// by Commit. An aborted run (cancellation, deadline, injected fault,
// panic) calls Abort, which drops the staging wholesale — so the shared
// caches are left bit-identical to the run never having started, the
// no-partial-work-poisoning invariant of the fault model (doc.go,
// "Fault model and degradation ladder").
//
// Reads still see the run's own writes: Binding lookups consult the
// staging area first, then the shared cache, so repeat coalitions within
// one explain are served exactly as they were when stores were direct.
// Values are deterministic per (game, coalition, generation), which is
// what makes deferred publication invisible to results: a committed and
// an uncommitted run compute bit-identical estimates, the only difference
// is whether the *next* run starts warm.
//
// A nil *Txn is a valid "no transaction" value: Bind and the repair
// helpers fall through to direct cache access. A Txn is safe for the
// concurrent goroutines one explain fans out (sampler workers all staging
// into it), but must not be shared by concurrent explains — each run
// begins its own.
type Txn struct {
	e *Engine

	// staged counts every store into the transaction. Lookups load it
	// before taking the mutex: a shared-cache-warm explain never stages
	// anything, and its (hot, per-sample) staged-first lookups must cost
	// one atomic load, not a lock acquisition plus an empty map probe.
	// A lookup racing a concurrent store of a *different* key may read 0
	// and skip the maps — harmless, the shared cache answers exactly as it
	// would have inside the transaction; same-key compute-then-lookup
	// happens on one goroutine, which always sees its own increment.
	staged atomic.Uint64

	mu   sync.Mutex
	coal map[txnCoalKey]float64
	// wide holds >64-player staged stores, hash-chained exactly like the
	// shared cache's wide shards (hash → entries compared by game, gen and
	// packed words), so staged probes and Commit's republication cost what
	// the shared cache's own probes and stores do.
	wide    map[uint64][]txnWideEntry
	repairs map[string]txnRepairEntry
}

// txnCoalKey identifies one staged ≤64-player coalition value.
type txnCoalKey struct {
	game uint64
	gen  uint64
	bits uint64
}

// txnWideEntry is one staged >64-player coalition value.
type txnWideEntry struct {
	game  uint64
	gen   uint64
	words []uint64
	v     float64
}

// txnRepairEntry is one staged repair diff.
type txnRepairEntry struct {
	gen   uint64
	diffs []table.CellDiff
}

// Begin opens a cache transaction on the engine.
func (e *Engine) Begin() *Txn { return &Txn{e: e} }

// Bind is Engine.Bind routed through the transaction: the returned
// binding's stores stage into the txn and its lookups see staged values
// first. A nil txn binds nil, the valid "no shared cache" binding.
func (t *Txn) Bind(desc string, gen func() uint64) *Binding {
	if t == nil {
		return nil
	}
	b := t.e.Bind(desc, gen)
	b.txn = t
	return b
}

// CachedGame is Engine.CachedGame with the binding routed through the
// transaction; a nil txn wraps g in a private shapley.Cached.
func (t *Txn) CachedGame(desc string, gen func() uint64, g shapley.Game) shapley.Game {
	if t == nil {
		return shapley.NewCached(g)
	}
	return &CachedGame{b: t.Bind(desc, gen), g: g}
}

// stageNarrow records one pre-packed ≤64-player coalition value in the
// staging area. The packed-key API (here and the three siblings below)
// lets Binding hash a coalition's packed words once per operation and
// probe staging and the shared cache with the same key.
func (t *Txn) stageNarrow(game, gen, bits uint64, v float64) {
	key := txnCoalKey{game: game, gen: gen, bits: bits}
	t.staged.Add(1)
	t.mu.Lock()
	if t.coal == nil {
		t.coal = make(map[txnCoalKey]float64)
	}
	t.coal[key] = v
	t.mu.Unlock()
}

// stageWide records one pre-packed >64-player coalition value. h must be
// HashPacked(words)^mix64(game) — the same chain key the shared cache
// derives, so Commit republishes into the identical shard buckets. words
// is cloned on insert; callers may reuse the buffer.
func (t *Txn) stageWide(game, gen, h uint64, words []uint64, v float64) {
	t.staged.Add(1)
	t.mu.Lock()
	if t.wide == nil {
		t.wide = make(map[uint64][]txnWideEntry)
	}
	for i, e := range t.wide[h] {
		if e.game == game && e.gen == gen && slices.Equal(e.words, words) {
			t.wide[h][i].v = v
			t.mu.Unlock()
			return
		}
	}
	//lint:allow allocfree staging a new wide entry must own its packed key; restaging an existing key updates in place above
	t.wide[h] = append(t.wide[h], txnWideEntry{game: game, gen: gen, words: slices.Clone(words), v: v})
	t.mu.Unlock()
}

// stagedNarrow looks a pre-packed ≤64-player coalition value up in the
// staging area.
func (t *Txn) stagedNarrow(game, gen, bits uint64) (float64, bool) {
	if t == nil || t.staged.Load() == 0 {
		return 0, false
	}
	key := txnCoalKey{game: game, gen: gen, bits: bits}
	t.mu.Lock()
	v, ok := t.coal[key]
	t.mu.Unlock()
	return v, ok
}

// stagedWide looks a pre-packed >64-player coalition value up in the
// staging area; h as in stageWide.
func (t *Txn) stagedWide(game, gen, h uint64, words []uint64) (float64, bool) {
	if t == nil || t.staged.Load() == 0 {
		return 0, false
	}
	t.mu.Lock()
	for _, e := range t.wide[h] {
		if e.game == game && e.gen == gen && slices.Equal(e.words, words) {
			t.mu.Unlock()
			return e.v, true
		}
	}
	t.mu.Unlock()
	return 0, false
}

// RepairLookup is RepairCache.Lookup with the transaction's staged diffs
// consulted first. Nil-safe on both the txn and the engine's cache.
func (t *Txn) RepairLookup(desc string, gen uint64) ([]table.CellDiff, bool) {
	if t == nil {
		return nil, false
	}
	if t.staged.Load() != 0 {
		t.mu.Lock()
		e, ok := t.repairs[desc]
		t.mu.Unlock()
		if ok && e.gen == gen {
			return e.diffs, true
		}
	}
	return t.e.RepairTargets().Lookup(desc, gen)
}

// RepairStore stages one repair diff for publication at Commit.
func (t *Txn) RepairStore(desc string, gen uint64, diffs []table.CellDiff) {
	if t == nil {
		return
	}
	faults.Hit(faults.SiteCacheStore)
	t.staged.Add(1)
	t.mu.Lock()
	if t.repairs == nil {
		t.repairs = make(map[string]txnRepairEntry)
	}
	t.repairs[desc] = txnRepairEntry{gen: gen, diffs: append([]table.CellDiff(nil), diffs...)}
	t.mu.Unlock()
}

// Commit publishes every staged value to the shared caches. Stores carry
// their original generation stamps, so values computed before a concurrent
// table edit are dropped by the caches' generation guards exactly as
// direct stores would have been. Commit leaves the txn empty; committing
// a nil txn is a no-op.
func (t *Txn) Commit() {
	if t == nil {
		return
	}
	t.mu.Lock()
	coal, wide, repairs := t.coal, t.wide, t.repairs
	t.coal, t.wide, t.repairs = nil, nil, nil
	t.mu.Unlock()
	// Group by shard first, so each shard decides its eviction once from
	// the whole batch (CoalitionCache.publish).
	var byShard [cacheShards]shardBatch
	//lint:allow detmap grouping by shard; publish makes each shard's contents independent of the order within its batch
	for key, v := range coal {
		b := &byShard[narrowShard(key.game, key.bits)]
		b.narrow = append(b.narrow, txnNarrow{key: key, v: v})
	}
	//lint:allow detmap grouping by shard; publish makes each shard's contents independent of the order within its batch
	for h, es := range wide {
		b := &byShard[h&(cacheShards-1)]
		for _, e := range es {
			b.wide = append(b.wide, txnWide{h: h, e: e})
		}
	}
	for i := range byShard {
		t.e.cache.publish(i, &byShard[i])
	}
	//lint:allow detmap republication into a keyed store: descriptors are unique, order cannot affect contents
	for desc, e := range repairs {
		t.e.repairs.Store(desc, e.gen, e.diffs)
	}
}

// Abort drops every staged value. The shared caches never saw them, so
// post-abort they are bit-identical to the run never having started.
// Nil-safe.
func (t *Txn) Abort() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.coal, t.wide, t.repairs = nil, nil, nil
	t.mu.Unlock()
}
