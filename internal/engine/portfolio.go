package engine

// Portfolio dispatch. Gottlob–Malizia ("Achieving New Upper Bounds for the
// Hypergraph Duality Problem through Logic") underline that no single
// duality algorithm dominates across instance shapes; the Portfolio engine
// selects per instance on edge counts alone:
//
//   - A side with ≤ 2 edges goes to FK-B, whose small-side base resolves the
//     instance by one dualization of that tiny side — no tree search at all.
//   - Everything else goes to the serial decomposition, which a Session runs
//     on its pinned, memoized walker.
//
// The parallel decomposition is never selected. The paper's trees are at
// most ⌊log₂|H|⌋ deep with microsecond nodes, so a stolen subtree carries
// too little work to repay the steal's scratch re-synchronization, and
// splitting a walk across workers forgoes the session's cross-decision
// memo. A service already runs one session per core. core-parallel stays
// available to callers who name it.
//
// Racing mode hedges the choice: the selected engine runs against a
// contrasting one (FK-A against core, core against FK-B) under a shared
// context, the first verdict wins and cancels the loser within one
// tree-node/recursion-step boundary.

import (
	"context"

	"dualspace/internal/core"
	"dualspace/internal/hypergraph"
)

// fkSmallSide: at or below this min-side edge count FK-B resolves the
// instance directly from its small-side base.
const fkSmallSide = 2

// Features are the per-instance counts the portfolio dispatches on.
type Features struct {
	// Vertices is |V|; GEdges and HEdges are |G| and |H|.
	Vertices, GEdges, HEdges int
	// MinSide is min(|G|,|H|); Product is |G|·|H|.
	MinSide, Product int
}

// PortfolioConfig parameterizes a Portfolio; the zero value is the default
// non-racing portfolio.
type PortfolioConfig struct {
	// Race runs the selected engine against a contrasting one and takes the
	// first verdict, cancelling the loser.
	Race bool
}

// Portfolio is the feature-dispatching engine. It is stateless and safe for
// concurrent use; create with NewPortfolio.
type Portfolio struct {
	cfg      PortfolioConfig
	serial   coreSerial
	fka, fkb fk
}

// NewPortfolio returns a portfolio over the serial core and FK engines.
func NewPortfolio(cfg PortfolioConfig) *Portfolio {
	return &Portfolio{cfg: cfg, fkb: fk{b: true}}
}

// Name returns "portfolio".
func (p *Portfolio) Name() string { return "portfolio" }

// Caps reports the portfolio's own contract: a Session can pin its scratch,
// but a fail path is not guaranteed (the FK engines do not produce one), and
// TrSubset runs on the serial walker. Only a racing portfolio searches on
// more than one goroutine.
func (p *Portfolio) Caps() Caps {
	return Caps{Parallel: p.cfg.Race, TrSubset: true, Reusable: true}
}

// Select returns the engine the portfolio would dispatch (g, h) to, plus the
// features that determined the choice — exposed so tests and /statsz
// consumers can observe the policy.
func (p *Portfolio) Select(g, h *hypergraph.Hypergraph) (Engine, Features) {
	f := Features{
		Vertices: g.N(),
		GEdges:   g.M(),
		HEdges:   h.M(),
		MinSide:  min(g.M(), h.M()),
		Product:  g.M() * h.M(),
	}
	if f.MinSide <= fkSmallSide {
		return p.fkb, f
	}
	return p.serial, f
}

// rival returns the contrasting engine raced against the selection: the
// FK-A baseline against core picks, the serial decomposition against FK
// picks — maximally different search strategies, per the racing rationale.
func (p *Portfolio) rival(sel Engine) Engine {
	switch sel.(type) {
	case fk:
		return p.serial
	default:
		return p.fka
	}
}

// Decide dispatches to the selected engine, or races it against its rival
// when racing is configured.
func (p *Portfolio) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	sel, _ := p.Select(g, h)
	if p.cfg.Race {
		return race(ctx, sel, p.rival(sel), g, h)
	}
	return sel.Decide(ctx, g, h)
}

// TrSubset runs the raw tree stage on the serial walker (the FK engines
// cannot answer the precondition-free question, and the choice does not
// affect the verdict).
func (p *Portfolio) TrSubset(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return core.TrSubsetContext(ctx, g, h)
}

func (p *Portfolio) decideWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	if p.cfg.Race {
		// Racing runs two engines concurrently; the single-threaded pinned
		// decider cannot serve both, so racing portfolios decide statelessly.
		return p.Decide(ctx, g, h)
	}
	sel, _ := p.Select(g, h)
	if db, ok := sel.(deciderBacked); ok {
		return db.decideWith(ctx, d, g, h)
	}
	return sel.Decide(ctx, g, h)
}

func (p *Portfolio) trSubsetWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return d.TrSubsetContext(ctx, g, h)
}

// race runs a and b under a shared cancellable context and returns the first
// verdict, cancelling the loser (which drains within one node boundary). It
// waits for both goroutines before returning, so no work outlives the call.
func race(ctx context.Context, a, b Engine, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	rctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 2)
	for _, e := range []Engine{a, b} {
		go func(e Engine) {
			res, err := e.Decide(rctx, g, h)
			ch <- outcome{res, err}
		}(e)
	}
	var winner *core.Result
	var firstErr error
	for i := 0; i < 2; i++ {
		o := <-ch
		switch {
		case o.err == nil && winner == nil:
			winner = o.res
			cancel() // stop the loser; its (cancelled) error is discarded
		case o.err != nil && firstErr == nil:
			firstErr = o.err
		}
	}
	if winner != nil {
		return winner, nil
	}
	return nil, firstErr
}
