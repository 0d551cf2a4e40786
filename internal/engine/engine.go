// Package engine is the pluggable decision-engine layer: one interface over
// the repository's five duality decision procedures — the paper's
// Boros–Makino decomposition (serial and parallel, internal/core), the
// space-metered replay walker (internal/logspace), and the Fredman–Khachiyan
// algorithms A and B (internal/fkdual) — plus a Portfolio that dispatches on
// edge counts (with an optional racing mode) and a Session that
// pins per-engine scratch so a long-lived holder's repeated decisions are
// allocation-free across calls.
//
// Every engine answers the same question with the same Result vocabulary:
// Decide(ctx, g, h) reports whether h = tr(g), classifying negative verdicts
// with core's Reason taxonomy. The adapters for procedures that lack core's
// precondition stage (FK, logspace) run core.Precheck first, so constants,
// cross-intersection failures and minimality violations are reported
// identically by every engine; only the tree/recursion stage differs. For
// the FK algorithms the recursion witness x (an assignment with
// f_g(x) = f_h(V∖x)) is converted to the paper's witness form: once the
// preconditions hold only both-false witnesses are possible, and then V∖x is
// a new transversal of g with respect to h.
//
// Call sites choose an engine by value (ByName, NewPortfolio, NewCoreParallel)
// or take the Default portfolio; no package outside this one constructs a
// decision procedure directly — the façade, the HTTP service, the CLIs and
// the application layers (transversal oracles, keys, itemsets, coteries) all
// route through here. DESIGN.md §6 documents the layer.
package engine

import (
	"context"
	"fmt"

	"dualspace/internal/core"
	"dualspace/internal/fkdual"
	"dualspace/internal/hypergraph"
	"dualspace/internal/logspace"
)

// Caps describes what an engine can do beyond the bare verdict, so callers
// can dispatch on ability instead of name.
type Caps struct {
	// Parallel: the engine searches with multiple goroutines.
	Parallel bool
	// FailPath: non-dual verdicts carry a decomposition-tree fail-path
	// descriptor (the O(log²n)-bit certificate of Theorem 5.1).
	FailPath bool
	// TrSubset: the engine also decides the raw tree question tr(g) ⊆ h
	// without the minimality preconditions (it implements TrSubsetter).
	TrSubset bool
	// Reusable: a Session can pin this engine's scratch for allocation-free
	// repeated decisions.
	Reusable bool
}

// Engine is a duality decision procedure. Implementations are stateless and
// safe for concurrent use; per-holder reusable state lives in Session.
type Engine interface {
	// Name returns the engine's registry name (see Names).
	Name() string
	// Caps reports the engine's capabilities.
	Caps() Caps
	// Decide reports whether h = tr(g), under core.DecideContext's input and
	// cancellation contract.
	Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error)
}

// TrSubsetter is the optional raw tree-stage capability: deciding
// tr(g) ⊆ h for a simple, cross-intersecting, non-constant pair without
// requiring minimality (the mid-iteration form the incremental applications
// of §1 of the paper need). Engines advertise it via Caps.TrSubset.
type TrSubsetter interface {
	Engine
	TrSubset(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error)
}

// deciderBacked is implemented by engines whose decisions can run on a
// Session's pinned core.Decider instead of fresh per-call scratch.
type deciderBacked interface {
	decideWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error)
	trSubsetWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error)
}

// TrSubset decides tr(g) ⊆ h with eng when it has the capability, falling
// back to the reference serial tree stage otherwise (every engine's verdict
// would agree; only the work differs, so the fallback is safe).
func TrSubset(ctx context.Context, eng Engine, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	if ts, ok := eng.(TrSubsetter); ok {
		return ts.TrSubset(ctx, g, h)
	}
	return core.TrSubsetContext(ctx, g, h)
}

// coreSerial adapts the paper's serial decomposition (core.DecideContext).
type coreSerial struct{}

func (coreSerial) Name() string { return "core" }
func (coreSerial) Caps() Caps   { return Caps{FailPath: true, TrSubset: true, Reusable: true} }
func (coreSerial) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return core.DecideContext(ctx, g, h)
}
func (coreSerial) TrSubset(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return core.TrSubsetContext(ctx, g, h)
}
func (coreSerial) decideWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return d.DecideContext(ctx, g, h)
}
func (coreSerial) trSubsetWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return d.TrSubsetContext(ctx, g, h)
}

// coreParallel adapts the bounded-goroutine tree search.
type coreParallel struct{ workers int }

// NewCoreParallel returns the parallel decomposition engine with the given
// goroutine bound (0 = GOMAXPROCS). The portfolio never selects it; callers
// opt in by name or through here.
func NewCoreParallel(workers int) Engine { return coreParallel{workers: workers} }

func (coreParallel) Name() string { return "core-parallel" }
func (coreParallel) Caps() Caps   { return Caps{Parallel: true, FailPath: true} }
func (e coreParallel) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return core.DecideParallelContext(ctx, g, h, e.workers)
}

// decideWith cannot use the pinned scratch (the work-stealing pool owns its
// worker states), but it inherits the session decider's recorder so parallel
// decisions report stage timings — including walk_steals — like serial ones.
func (e coreParallel) decideWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return core.DecideParallelOpts(ctx, g, h, core.ParallelOptions{Workers: e.workers, Rec: d.Recorder()})
}

// trSubsetWith answers the raw tree stage on the pinned serial walker (the
// choice does not affect the verdict).
func (e coreParallel) trSubsetWith(ctx context.Context, d *core.Decider, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	return d.TrSubsetContext(ctx, g, h)
}

// fk adapts the Fredman–Khachiyan algorithms: core.Precheck for the
// precondition reasons, then the FK recursion for the tree-equivalent stage.
type fk struct{ b bool }

func (e fk) Name() string {
	if e.b {
		return "fk-b"
	}
	return "fk-a"
}
func (fk) Caps() Caps { return Caps{} }

func (e fk) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	res, done, err := core.Precheck(g, h)
	if err != nil || done {
		return res, err
	}
	decide := fkdual.DecideAContext
	if e.b {
		decide = fkdual.DecideBContext
	}
	fres, err := decide(ctx, g, h)
	if err != nil {
		return nil, err
	}
	out := &core.Result{Dual: fres.Dual, GEdge: -1, HEdge: -1, RedundantVertex: -1}
	// Map the recursion counters onto the tree-stage statistics so callers
	// see comparable work measures across engines.
	out.Stats = core.Stats{Nodes: fres.Stats.Calls, MaxDepth: fres.Stats.MaxDepth}
	if !fres.Dual {
		// Preconditions hold, so the FK witness x must be both-false
		// (a both-true witness would exhibit a disjoint edge pair, which
		// cross-intersection excludes): no g-edge inside x, no h-edge inside
		// V∖x. Then V∖x is a transversal of g containing no edge of h — the
		// paper's new-transversal witness — and x is its co-witness.
		out.Reason = core.ReasonNewTransversal
		out.Witness = fres.Witness.Complement()
		out.CoWitness = fres.Witness.Clone()
	}
	return out, nil
}

// logspaceReplay adapts the path-descriptor walker in its fast (replay)
// regime: core.Precheck, then logspace.FindFailPath over the decomposition
// tree, honoring the same |H| ≤ |G| orientation convention as core.Decide.
type logspaceReplay struct{}

func (logspaceReplay) Name() string { return "logspace" }
func (logspaceReplay) Caps() Caps   { return Caps{FailPath: true, TrSubset: true} }

func (e logspaceReplay) Decide(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	res, done, err := core.Precheck(g, h)
	if err != nil || done {
		return res, err
	}
	a, b, swapped := g, h, false
	if h.M() > g.M() {
		a, b, swapped = h, g, true
	}
	out, err := e.TrSubset(ctx, a, b)
	if err != nil {
		return nil, err
	}
	out.Swapped = swapped
	if !out.Dual && swapped {
		out.Witness, out.CoWitness = out.CoWitness, out.Witness
	}
	return out, nil
}

func (logspaceReplay) TrSubset(ctx context.Context, g, h *hypergraph.Hypergraph) (*core.Result, error) {
	out := &core.Result{Dual: true, GEdge: -1, HEdge: -1, RedundantVertex: -1}
	// Walk the tree through the path-descriptor enumerator (Theorem 4.1's
	// decompose), stopping at the first fail leaf — the same DFS-first
	// search as logspace.FindFailPath, but with the per-node visibility the
	// Stats contract wants (MaxChildren is not observable per node here and
	// stays 0). Attr.Label and Attr.T alias walker state, so both are
	// copied out.
	err := logspace.Decompose(g, h, logspace.Options{Mode: logspace.ModeReplay, Ctx: ctx},
		func(a logspace.Attr) bool {
			out.Stats.Nodes++
			if d := len(a.Label); d > out.Stats.MaxDepth {
				out.Stats.MaxDepth = d
			}
			if a.Mark == core.MarkNil {
				return true
			}
			out.Stats.Leaves++
			if a.Mark != core.MarkFail {
				return true
			}
			out.Dual = false
			out.Reason = core.ReasonNewTransversal
			out.Witness = a.T.Clone()
			out.CoWitness = out.Witness.Complement()
			out.FailPath = append([]int(nil), a.Label...)
			return false // fail leaf found: stop the walk
		}, nil)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Names lists the registry names accepted by ByName, default first.
func Names() []string {
	return []string{"portfolio", "core", "core-parallel", "fk-a", "fk-b", "logspace"}
}

// ByName resolves a registry name to an engine; the empty string resolves to
// the default portfolio. Unknown names return an error listing the registry.
func ByName(name string) (Engine, error) {
	switch name {
	case "", "portfolio":
		return Default(), nil
	case "core":
		return coreSerial{}, nil
	case "core-parallel":
		return coreParallel{}, nil
	case "fk-a":
		return fk{}, nil
	case "fk-b":
		return fk{b: true}, nil
	case "logspace":
		return logspaceReplay{}, nil
	}
	return nil, fmt.Errorf("engine: unknown engine %q (have %v)", name, Names())
}

// defaultPortfolio is the shared default engine: a non-racing portfolio,
// which never selects core-parallel. Portfolios are stateless, so one
// instance serves every caller.
var defaultPortfolio = NewPortfolio(PortfolioConfig{})

// Default returns the engine used by every legacy entry point: the standard
// feature-dispatching portfolio.
func Default() Engine { return defaultPortfolio }
