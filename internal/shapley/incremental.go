package shapley

import (
	"context"
	"math/rand"
)

// IncrementalGame is a StochasticGame that can evaluate coalition *prefixes*
// incrementally. Permutation sampling only ever grows a coalition by one
// player per step, so a game that maintains its evaluation state in place
// (e.g. a scratch table with masked cells) can accept a single-player delta
// instead of re-applying the full membership mask on every evaluation.
// SampleAll, SamplePlayer and SampleTopK detect this interface and switch to
// the walk protocol below; the estimates are bit-identical to the generic
// path for any conforming implementation (see the equivalence contract on
// CoalitionWalk).
type IncrementalGame interface {
	StochasticGame
	// NewWalk returns a fresh walk handle. Handles are confined to a single
	// goroutine; the sampler allocates one per worker. Callers must Close
	// the walk when done so pooled resources are returned.
	NewWalk() CoalitionWalk
}

// CoalitionWalk is the incremental-evaluation protocol: Reset to the empty
// coalition, Include or Exclude players one at a time, and Value the
// current coalition. SampleAll grows one prefix per permutation; the
// samplers that draw one marginal per permutation (SamplePlayer, TopK)
// morph the walk from one sample's coalition straight into the next —
// toggling only the players whose membership changed — instead of
// rebuilding every prefix from the empty coalition, which re-walks every
// player (for group games, every group) per sample.
//
// Equivalence contract: for any sequence of Reset/Include/Exclude calls
// producing membership set S, Value(ctx, rng) must return exactly what
// SampleValue(ctx, mask(S), rng) would return, consuming rng identically —
// the path taken to S must be unobservable. This is what makes the
// sampler's fast path produce bit-identical estimates under a fixed seed.
type CoalitionWalk interface {
	// Reset empties the coalition, starting a new permutation walk.
	Reset()
	// Include adds player p to the coalition. Adding an already-included
	// player is a no-op.
	Include(p int)
	// Exclude removes player p from the coalition. Removing an absent
	// player is a no-op.
	Exclude(p int)
	// Value evaluates one realization of the characteristic function on the
	// current coalition, drawing any randomness from rng.
	Value(ctx context.Context, rng *rand.Rand) (float64, error)
	// Close releases the walk's resources (scratch tables back to pools).
	Close()
}

// walkOrNil returns a CoalitionWalk when g supports incremental prefix
// evaluation, nil otherwise.
func walkOrNil(g StochasticGame) CoalitionWalk {
	if ig, ok := g.(IncrementalGame); ok {
		return ig.NewWalk()
	}
	return nil
}

// walkMorph drives a CoalitionWalk coalition-to-coalition: it mirrors the
// walk's membership and, per marginal, flips only the players that differ
// between the previous sample's final coalition and the next sample's
// prefix. Confined to one goroutine, like the walk it wraps.
type walkMorph struct {
	walk CoalitionWalk
	// cur mirrors the walk's current membership; valid only after started.
	cur     []bool
	want    []bool
	started bool
}

func newWalkMorph(w CoalitionWalk, players int) *walkMorph {
	return &walkMorph{walk: w, cur: make([]bool, players), want: make([]bool, players)}
}

// invalidate forgets the mirrored membership (the walk was driven directly
// via Reset/Include); the next marginal re-establishes it with a Reset.
func (m *walkMorph) invalidate() {
	m.started = false
}

// marginal samples one marginal contribution for player under perm: build
// the coalition of the players preceding it by the membership diff from
// the previous sample, evaluate without and with the player, and return
// the difference.
//
//lint:hotpath
func (m *walkMorph) marginal(ctx context.Context, perm []int, player int, rng *rand.Rand) (float64, error) {
	want := m.want
	for i := range want {
		want[i] = false
	}
	for _, p := range perm {
		if p == player {
			break
		}
		want[p] = true
	}
	if !m.started {
		m.walk.Reset()
		for i := range m.cur {
			m.cur[i] = false
		}
		m.started = true
	}
	for p := range want {
		switch {
		case want[p] && !m.cur[p]:
			m.walk.Include(p)
		case !want[p] && m.cur[p]:
			m.walk.Exclude(p)
		}
		m.cur[p] = want[p]
	}
	without, err := m.walk.Value(ctx, rng)
	if err != nil {
		return 0, err
	}
	m.walk.Include(player)
	m.cur[player] = true
	with, err := m.walk.Value(ctx, rng)
	if err != nil {
		return 0, err
	}
	return with - without, nil
}
