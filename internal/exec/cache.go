package exec

import (
	"context"
	"math"
	"slices"
	"sync"

	"repro/internal/faults"
	"repro/internal/shapley"
)

// floatBits exposes a value's bit pattern for fingerprinting ("bit-
// identical" is meant literally: -0.0 and 0.0, or two NaN payloads, are
// distinct cache states).
func floatBits(v float64) uint64 { return math.Float64bits(v) }

// cacheShards is the lock-striping factor of the shared cache; must be a
// power of two. Matches the per-game cache's striping so exact-enumeration
// fan-out never serializes on one mutex.
const cacheShards = 64

// maxShardEntries caps one shard's entries, narrow and wide together. A
// store that would go past it clears the shard first: cache participation
// never changes an estimate, so forgetting is always safe, and the cap
// bounds a session whose table sits at one generation across many
// explains. 64 shards of 1024 hold far more than one La Liga
// edit-and-refresh generation stores, so that loop never evicts.
const maxShardEntries = 1024

// CoalitionCache memoizes deterministic coalition values across *all* of a
// session's games, keyed by (gameID, packed coalition) and stamped with
// the table generation the value was computed at. Where the per-game
// shapley.Cached is built and discarded with its game, this cache survives
// the game: re-explaining a cell, switching between the constraint and the
// interaction screen, or re-running an exact group report after an
// unrelated edit was rolled back all hit values an earlier game already
// paid a black-box run for.
//
// Invalidation is by generation, lazily per shard: the first lookup
// carrying a new generation clears the shard, so Session.SetCell costs
// nothing up front and no stale value can ever be returned (the hammer
// test in core proves this under -race). Each shard holds at most
// maxShardEntries values and clears itself when a store would exceed
// that (Evictions counts the values dropped). Safe for concurrent use.
type CoalitionCache struct {
	shards [cacheShards]ccShard
}

// ccShard is one lock stripe; the padding keeps adjacent shards off the
// same cache line.
type ccShard struct {
	mu sync.Mutex
	// gen is the generation the shard's entries belong to; a lookup with a
	// different generation clears the shard first.
	gen    uint64
	narrow map[narrowKey]float64
	wide   map[uint64][]wideGameEntry
	// nWide counts the entries across wide's chains.
	nWide     int
	hits      uint64
	misses    uint64
	evictions uint64
	_         [8]byte
}

// narrowKey identifies a ≤64-player coalition of one game.
type narrowKey struct {
	game uint64
	bits uint64
}

// wideGameEntry is one >64-player entry: the owning game, the packed
// membership words, and the memoized value.
type wideGameEntry struct {
	game  uint64
	words []uint64
	v     float64
}

// NewCoalitionCache returns an empty shared cache.
func NewCoalitionCache() *CoalitionCache {
	c := &CoalitionCache{}
	for i := range c.shards {
		c.shards[i].narrow = make(map[narrowKey]float64)
		c.shards[i].wide = make(map[uint64][]wideGameEntry)
	}
	return c
}

// mix64 is the SplitMix64 finalizer (same scrambler as the per-game
// cache), so shard selection sees every key bit.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// syncGen prepares the shard for an access at generation gen (callers hold
// mu). Entries from an older generation are cleared — generations are
// monotonic, so they can never be asked for again. An access *older* than
// the shard (a value computed before a concurrent edit landed) reports
// false: the caller treats it as a miss or drops the store instead of
// resurrecting history.
func (s *ccShard) syncGen(gen uint64) bool {
	if s.gen == gen {
		return true
	}
	if gen < s.gen {
		return false
	}
	s.drop()
	s.gen = gen
	return true
}

// drop empties the shard (callers hold mu).
func (s *ccShard) drop() {
	clear(s.narrow)
	clear(s.wide)
	s.nWide = 0
}

// evict empties a full shard, counting the values it forgets (callers
// hold mu).
func (s *ccShard) evict() {
	s.evictions += uint64(len(s.narrow) + s.nWide)
	s.drop()
}

// full reports whether one more entry would exceed maxShardEntries.
func (s *ccShard) full() bool { return len(s.narrow)+s.nWide >= maxShardEntries }

// hasWide reports whether the chain at h holds (game, words).
func (s *ccShard) hasWide(h, game uint64, words []uint64) bool {
	for _, e := range s.wide[h] {
		if e.game == game && slices.Equal(e.words, words) {
			return true
		}
	}
	return false
}

// narrowShard picks the shard of a ≤64-player key.
func narrowShard(game, bits uint64) int { return int(mix64(bits^mix64(game)) & (cacheShards - 1)) }

// narrowBits is the single membership word of a ≤64-player coalition in
// packed form (no words at all for a game without players).
func narrowBits(words []uint64) uint64 {
	if len(words) == 0 {
		return 0
	}
	return words[0]
}

// wideStackWords sizes the stack buffer callers holding a []bool
// coalition pack into before probing: coalitions up to 64*wideStackWords
// players stay allocation-free; larger ones fall back to one
// append-grown heap buffer per operation.
const wideStackWords = 8

// Lookup returns the memoized value of (game, coalition) at generation
// gen, if present.
//
//lint:hotpath
func (c *CoalitionCache) Lookup(game, gen uint64, coalition []bool) (float64, bool) {
	var buf [wideStackWords]uint64
	words := shapley.AppendPacked(buf[:0], coalition)
	if len(words) <= 1 {
		return c.lookupNarrow(game, gen, narrowBits(words))
	}
	return c.lookupWide(game, gen, shapley.HashPacked(words)^mix64(game), words)
}

// lookupNarrow is Lookup for a pre-packed ≤64-player coalition.
func (c *CoalitionCache) lookupNarrow(game, gen, bits uint64) (float64, bool) {
	key := narrowKey{game: game, bits: bits}
	s := &c.shards[narrowShard(game, bits)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		s.misses++
		return 0, false
	}
	v, ok := s.narrow[key]
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	return v, ok
}

// lookupWide is Lookup for a pre-packed >64-player coalition; h must be
// HashPacked(words)^mix64(game).
func (c *CoalitionCache) lookupWide(game, gen, h uint64, words []uint64) (float64, bool) {
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		s.misses++
		return 0, false
	}
	for _, e := range s.wide[h] {
		if e.game == game && slices.Equal(e.words, words) {
			s.hits++
			return e.v, true
		}
	}
	s.misses++
	return 0, false
}

// Store memoizes the value of (game, coalition) computed at generation
// gen. A store carrying a generation older than the shard's is dropped —
// the table moved on while the value was being computed.
//
//lint:hotpath
func (c *CoalitionCache) Store(game, gen uint64, coalition []bool, v float64) {
	var buf [wideStackWords]uint64
	words := shapley.AppendPacked(buf[:0], coalition)
	if len(words) <= 1 {
		c.storeNarrow(game, gen, narrowBits(words), v)
		return
	}
	c.storeWideH(game, gen, shapley.HashPacked(words)^mix64(game), words, v)
}

// storeNarrow stores a pre-packed ≤64-player coalition value.
func (c *CoalitionCache) storeNarrow(game, gen, bits uint64, v float64) {
	key := narrowKey{game: game, bits: bits}
	s := &c.shards[narrowShard(game, bits)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		return
	}
	if s.full() {
		if _, ok := s.narrow[key]; !ok {
			s.evict()
		}
	}
	s.narrow[key] = v
}

// storeWideH stores a pre-packed >64-player coalition value; h as in
// lookupWide. words is cloned on insert, so callers may reuse it.
func (c *CoalitionCache) storeWideH(game, gen, h uint64, words []uint64, v float64) {
	s := &c.shards[h&(cacheShards-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) || s.hasWide(h, game, words) {
		return
	}
	if s.full() {
		s.evict()
	}
	//lint:allow allocfree a first-time insert must own its packed key; hits (the steady state) return above without cloning
	s.wide[h] = append(s.wide[h], wideGameEntry{game: game, words: slices.Clone(words), v: v})
	s.nWide++
}

// shardBatch is one shard's share of a committed transaction.
type shardBatch struct {
	narrow []txnNarrow
	wide   []txnWide
}

// txnNarrow and txnWide are staged values bound for one shard.
type txnNarrow struct {
	key txnCoalKey
	v   float64
}

type txnWide struct {
	h uint64
	e txnWideEntry
}

// publish stores one shard's committed values as a unit. Only the newest
// generation among them can survive (older stores would be dropped or
// cleared by it), and whether to evict is decided once, before any value
// is inserted, from the shard's size and the batch's — so the shard's
// contents never depend on the order the transaction's maps were iterated
// in. A batch larger than maxShardEntries is published whole; the next
// store evicts it.
func (c *CoalitionCache) publish(i int, b *shardBatch) {
	if len(b.narrow)+len(b.wide) == 0 {
		return
	}
	var gen uint64
	for _, e := range b.narrow {
		gen = max(gen, e.key.gen)
	}
	for _, e := range b.wide {
		gen = max(gen, e.e.gen)
	}
	s := &c.shards[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.syncGen(gen) {
		return
	}
	if len(s.narrow)+s.nWide+len(b.narrow)+len(b.wide) > maxShardEntries {
		s.evict()
	}
	for _, e := range b.narrow {
		if e.key.gen == gen {
			s.narrow[narrowKey{game: e.key.game, bits: e.key.bits}] = e.v
		}
	}
	for _, e := range b.wide {
		if e.e.gen == gen && !s.hasWide(e.h, e.e.game, e.e.words) {
			// The staged words are already a private clone; the cache
			// takes them over.
			s.wide[e.h] = append(s.wide[e.h], wideGameEntry{game: e.e.game, words: e.e.words, v: e.e.v})
			s.nWide++
		}
	}
}

// Len returns the number of memoized entries across shards (test and
// diagnostics introspection; the abort-then-rerun suite pins Len to zero
// after an aborted explain).
func (c *CoalitionCache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.narrow)
		//lint:allow detmap commutative integer sum; order-insensitive
		for _, es := range s.wide {
			n += len(es)
		}
		s.mu.Unlock()
	}
	return n
}

// Fingerprint folds every (game, generation, coalition, value) entry into
// one order-independent 64-bit digest: two caches fingerprint equal iff
// they memoize the same set of values. The chaos suite uses it to assert
// an aborted explain left the cache bit-identical to one that never ran.
func (c *CoalitionCache) Fingerprint() uint64 {
	var fp uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		//lint:allow detmap XOR fold is an order-independent digest by design
		for key, v := range s.narrow {
			fp ^= mix64(mix64(key.game) ^ mix64(key.bits) ^ mix64(s.gen) ^ mix64(uint64(floatBits(v))))
		}
		//lint:allow detmap XOR fold is an order-independent digest by design
		for h, es := range s.wide {
			for _, e := range es {
				w := mix64(e.game) ^ mix64(h) ^ mix64(s.gen) ^ mix64(uint64(floatBits(e.v)))
				for _, word := range e.words {
					w = mix64(w ^ word)
				}
				fp ^= mix64(w)
			}
		}
		s.mu.Unlock()
	}
	return fp
}

// Clear drops every entry (hit/miss statistics survive). Used when game
// identity itself moves — a session's constraint-set edit re-keys every
// game descriptor, turning all stored values into unreachable dead weight
// that a generation bump would never collect (generations track table
// edits only).
func (c *CoalitionCache) Clear() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.drop()
		s.mu.Unlock()
	}
}

// Stats returns cumulative hits and misses summed over shards.
func (c *CoalitionCache) Stats() (hits, misses uint64) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		hits += s.hits
		misses += s.misses
		s.mu.Unlock()
	}
	return hits, misses
}

// Evictions returns the number of values dropped because their shard was
// full, summed over shards. Generation invalidation and Clear are not
// evictions.
func (c *CoalitionCache) Evictions() uint64 {
	var n uint64
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.evictions
		s.mu.Unlock()
	}
	return n
}

// Binding is one game's handle on the shared coalition cache: the interned
// game ID plus the generation source. It is how *deterministic* evaluation
// paths outside the exact enumerators — the null-policy coalition
// evaluations inside the sampling loops (SampleAll, SamplePlayer, TopK) —
// participate in the shared cache without wrapping the game: the game keeps
// its walk/scratch fast paths and consults the binding per evaluation.
//
// The generation stamp read by Lookup must be handed back to the matching
// Store, so a value computed while a concurrent session edit lands is
// dropped rather than stored as current (the same ordering CachedGame
// uses). A nil *Binding is a valid "no shared cache" value: Lookup always
// misses and Store is a no-op.
type Binding struct {
	cache *CoalitionCache
	id    uint64
	gen   func() uint64
	// txn, when set, stages this binding's stores in the owning explain's
	// cache transaction instead of publishing them directly, and serves
	// the run's own staged values on lookup — the no-partial-work-poisoning
	// discipline (see Txn).
	txn *Txn
}

// Bind interns desc (see GameID for the descriptor contract) and returns
// the game's cache binding.
func (e *Engine) Bind(desc string, gen func() uint64) *Binding {
	return &Binding{cache: e.cache, id: e.GameID(desc), gen: gen}
}

// Lookup returns the memoized value of a coalition, packed as
// shapley.AppendPacked lays it out, at the current generation; gen must
// be passed to the Store that memoizes a miss.
//
//lint:hotpath
func (b *Binding) Lookup(words []uint64) (v float64, gen uint64, ok bool) {
	if b == nil {
		return 0, 0, false
	}
	gen = b.gen()
	v, ok = b.lookupAt(gen, words)
	return v, gen, ok
}

// lookupAt hashes the packed coalition once and probes the staging area
// and the shared cache with the same key.
func (b *Binding) lookupAt(gen uint64, words []uint64) (float64, bool) {
	if len(words) <= 1 {
		bits := narrowBits(words)
		if v, ok := b.txn.stagedNarrow(b.id, gen, bits); ok {
			return v, true
		}
		return b.cache.lookupNarrow(b.id, gen, bits)
	}
	h := shapley.HashPacked(words) ^ mix64(b.id)
	if v, ok := b.txn.stagedWide(b.id, gen, h, words); ok {
		return v, ok
	}
	return b.cache.lookupWide(b.id, gen, h, words)
}

// LookupAt is Lookup pinned to an explicit generation stamp — the walks'
// variant. A coalition walk evaluates against a scratch snapshot taken at
// a fixed generation, so both its lookups and its stores must carry that
// stamp: looking up at the *live* generation could hit a value another
// explain computed after a concurrent session edit, mixing two table
// states into one walk's estimates. A stale stamp (the table moved on)
// simply misses. Walks pass the packed membership they maintain one
// player at a time (shapley.Packed), so no evaluation repacks its key.
//
//lint:hotpath
func (b *Binding) LookupAt(gen uint64, words []uint64) (float64, bool) {
	if b == nil {
		return 0, false
	}
	return b.lookupAt(gen, words)
}

// Store memoizes the value of a packed coalition computed at the
// generation a prior Lookup reported; words is copied, so callers may
// keep mutating it. No-op on a nil binding. SiteCacheStore is the
// fault-injection checkpoint here: a scheduled cancellation lands exactly
// between computing a value and publishing it, the moment the
// no-partial-work-poisoning invariant guards.
//
//lint:hotpath
func (b *Binding) Store(gen uint64, words []uint64, v float64) {
	if b == nil {
		return
	}
	faults.Hit(faults.SiteCacheStore)
	if len(words) <= 1 {
		bits := narrowBits(words)
		if b.txn != nil {
			b.txn.stageNarrow(b.id, gen, bits, v)
			return
		}
		b.cache.storeNarrow(b.id, gen, bits, v)
		return
	}
	h := shapley.HashPacked(words) ^ mix64(b.id)
	if b.txn != nil {
		b.txn.stageWide(b.id, gen, h, words, v)
		return
	}
	b.cache.storeWideH(b.id, gen, h, words, v)
}

// CachedGame is a shapley.Game view over one game's slice of the shared
// cache: lookups and stores are stamped with the generation gen() reports,
// so values computed before a session edit can never satisfy a lookup
// after it.
type CachedGame struct {
	b *Binding
	g shapley.Game
}

// NumPlayers implements shapley.Game.
func (cg *CachedGame) NumPlayers() int { return cg.g.NumPlayers() }

// Value implements shapley.Game, consulting the shared cache first.
//
//lint:hotpath
func (cg *CachedGame) Value(ctx context.Context, coalition []bool) (float64, error) {
	var buf [wideStackWords]uint64
	words := shapley.AppendPacked(buf[:0], coalition)
	v, gen, ok := cg.b.Lookup(words)
	if ok {
		return v, nil
	}
	v, err := cg.g.Value(ctx, coalition)
	if err != nil {
		return 0, err
	}
	cg.b.Store(gen, words, v)
	return v, nil
}
