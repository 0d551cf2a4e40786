package engine_test

import (
	"context"
	"runtime"
	"testing"

	"dualspace/internal/engine"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
	"dualspace/internal/obs"
	"dualspace/internal/transversal"
)

func mustEngine(t *testing.T, name string) engine.Engine {
	t.Helper()
	e, err := engine.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegistry(t *testing.T) {
	for _, name := range engine.Names() {
		e := mustEngine(t, name)
		if e.Name() != name {
			t.Errorf("ByName(%q).Name() = %q", name, e.Name())
		}
	}
	if def, err := engine.ByName(""); err != nil || def.Name() != "portfolio" {
		t.Errorf("empty name resolved to (%v, %v), want the portfolio", def, err)
	}
	if _, err := engine.ByName("quantum"); err == nil {
		t.Error("unknown engine name did not error")
	}
	caps := mustEngine(t, "core").Caps()
	if !caps.TrSubset || !caps.Reusable || caps.Parallel {
		t.Errorf("core caps = %+v", caps)
	}
	if !mustEngine(t, "core-parallel").Caps().Parallel {
		t.Error("core-parallel not flagged Parallel")
	}
}

// star returns the α-acyclic star {{0,i}} with m rays over m+1 vertices.
func star(m int) *hypergraph.Hypergraph {
	h := hypergraph.New(m + 1)
	for i := 1; i <= m; i++ {
		h.AddEdgeElems(0, i)
	}
	return h
}

// TestPortfolioSelect pins the two-rule dispatch: a side with at most two
// edges goes to FK-B, everything else to the serial core, whatever
// GOMAXPROCS is. The portfolio never selects a parallel engine, so every
// default decision runs on a session's pinned, memoized walker.
func TestPortfolioSelect(t *testing.T) {
	type instance struct {
		name string
		g, h *hypergraph.Hypergraph
	}
	insts := []instance{
		{"majority-7", gen.Majority(7), gen.Majority(7)},
		{"majority-9", gen.Majority(9), gen.Majority(9)},
		{"star-60", star(60), star(60)},
	}
	for _, p := range gen.Families(11) {
		insts = append(insts, instance{p.Name, p.G, p.H})
	}
	p := engine.Default().(*engine.Portfolio)
	for _, procs := range []int{1, 4} {
		prev := runtime.GOMAXPROCS(procs)
		for _, in := range insts {
			sel, f := p.Select(in.g, in.h)
			want := "core"
			if f.MinSide <= 2 {
				want = "fk-b"
			}
			if sel.Name() != want || sel.Caps().Parallel {
				t.Errorf("GOMAXPROCS=%d %s: selected %s (parallel=%v), want %s (features %+v)",
					procs, in.name, sel.Name(), sel.Caps().Parallel, want, f)
			}
			if f.MinSide != min(in.g.M(), in.h.M()) || f.Product != in.g.M()*in.h.M() {
				t.Errorf("%s: features %+v disagree with the edge counts", in.name, f)
			}
		}
		runtime.GOMAXPROCS(prev)
	}

	// Both rules are exercised: a two-edge side dispatches to FK-B
	// regardless of the other side.
	if sel, f := p.Select(gen.Matching(2), gen.MatchingDual(2)); sel.Name() != "fk-b" || f.MinSide != 2 {
		t.Errorf("small side: selected %s (features %+v)", sel.Name(), f)
	}
	if sel, _ := p.Select(gen.Majority(9), gen.Majority(9)); sel.Name() != "core" {
		t.Errorf("majority-9: selected %s, want core", sel.Name())
	}
}

func TestSessionRecorderReachesParallel(t *testing.T) {
	// A session's stage recorder must flow through to the parallel engine
	// even though the work-stealing pool cannot use the pinned scratch; the
	// walk stage (and on multi-worker runs possibly walk_steals) lands in
	// the same recorder serial decisions use.
	s := engine.NewSession(engine.NewCoreParallel(4))
	rec := s.Recorder()
	m := gen.Majority(7)
	res, err := s.Decide(context.Background(), m, m)
	if err != nil || !res.Dual {
		t.Fatalf("decide: %v %v", res, err)
	}
	if rec.Get(obs.StageWalk) <= 0 {
		t.Errorf("parallel decision recorded no walk time: %v", rec.Timings())
	}
	if rec.Get(obs.StageIndexSync) <= 0 {
		t.Errorf("parallel decision recorded no index time: %v", rec.Timings())
	}
	if rec.Get(obs.StageWalkSteals) < 0 {
		t.Errorf("negative steal time: %v", rec.Timings())
	}
}

func TestPortfolioRacing(t *testing.T) {
	p := engine.NewPortfolio(engine.PortfolioConfig{Race: true})
	ctx := context.Background()
	for _, pair := range gen.Families(3) {
		res, err := p.Decide(ctx, pair.G, pair.H)
		if err != nil {
			t.Fatalf("%s: %v", pair.Name, err)
		}
		if res.Dual != pair.Dual {
			t.Errorf("%s: racing verdict %v, want %v", pair.Name, res.Dual, pair.Dual)
		}
	}
	// A cancelled context surfaces as an error, not a verdict.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.Decide(cancelled, gen.Matching(4), gen.MatchingDual(4)); err == nil {
		t.Error("racing on a cancelled context returned a verdict")
	}
}

// TestSessionAllocFree is the acceptance guard for the session layer: after
// warm-up, repeated Decide calls through one Session allocate nothing — on
// dual verdicts and on non-dual (witness-carrying) verdicts alike, and under
// the portfolio as well as the bare core engine.
func TestSessionAllocFree(t *testing.T) {
	ctx := context.Background()
	gD, hD := gen.Matching(5), gen.MatchingDual(5)
	hN := gen.DropEdge(hD, 11)

	for _, name := range []string{"core", "portfolio"} {
		s := engine.NewSession(mustEngine(t, name))
		// Warm up both verdict paths (sizes the scratch, frames, buffers).
		for i := 0; i < 2; i++ {
			if res, err := s.Decide(ctx, gD, hD); err != nil || !res.Dual {
				t.Fatalf("%s warmup dual: %v, %v", name, res, err)
			}
			if res, err := s.Decide(ctx, gD, hN); err != nil || res.Dual {
				t.Fatalf("%s warmup non-dual: %v, %v", name, res, err)
			}
		}
		if allocs := testing.AllocsPerRun(20, func() {
			res, err := s.Decide(ctx, gD, hD)
			if err != nil || !res.Dual {
				t.Fatal("wrong dual verdict")
			}
		}); allocs != 0 {
			t.Errorf("%s session: dual Decide allocates %.1f/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(20, func() {
			res, err := s.Decide(ctx, gD, hN)
			if err != nil || res.Dual || res.Witness.IsEmpty() {
				t.Fatal("wrong non-dual verdict")
			}
		}); allocs != 0 {
			t.Errorf("%s session: non-dual Decide allocates %.1f/op, want 0", name, allocs)
		}
		// With the session's stage recorder attached — the serving
		// configuration — the steady state must stay allocation-free: the
		// recorder adds clock reads per decision, never allocations.
		rec := s.Recorder()
		if allocs := testing.AllocsPerRun(20, func() {
			rec.Reset()
			res, err := s.Decide(ctx, gD, hD)
			if err != nil || !res.Dual {
				t.Fatal("wrong dual verdict")
			}
		}); allocs != 0 {
			t.Errorf("%s session: recorded Decide allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestSessionResultReuse pins the documented aliasing contract: the result
// is valid until the next call, and Clone detaches it.
func TestSessionResultReuse(t *testing.T) {
	ctx := context.Background()
	s := engine.NewSession(mustEngine(t, "core"))
	g, h := gen.Matching(4), gen.MatchingDual(4)
	first, err := s.Decide(ctx, g, gen.DropEdge(h, 3))
	if err != nil || first.Dual {
		t.Fatalf("first decide: %v, %v", first, err)
	}
	kept := first.Clone()
	if _, err := s.Decide(ctx, g, h); err != nil {
		t.Fatal(err)
	}
	if kept.Dual || !g.IsNewTransversal(kept.Witness, gen.DropEdge(h, 3)) {
		t.Error("cloned result corrupted by a subsequent session call")
	}
}

func TestSessionDecideWithOverride(t *testing.T) {
	ctx := context.Background()
	s := engine.NewSession(mustEngine(t, "portfolio"))
	g, h := gen.Matching(3), gen.MatchingDual(3)
	for _, name := range []string{"core", "core-parallel", "fk-a", "fk-b", "logspace"} {
		res, err := s.DecideWith(ctx, mustEngine(t, name), g, h)
		if err != nil || !res.Dual {
			t.Errorf("override %s: %v, %v", name, res, err)
		}
	}
}

func TestTransversalOracle(t *testing.T) {
	ctx := context.Background()
	for _, h := range []*hypergraph.Hypergraph{
		gen.Matching(3),
		gen.Majority(5),
		star(4),
		hypergraph.New(3),                        // tr(∅) = {∅}
		hypergraph.MustFromEdges(3, [][]int{{}}), // tr({∅}) = ∅
		hypergraph.MustFromEdges(1, [][]int{{0}}), // tr({{0}}) = {{0}}
	} {
		want := transversal.Berge(h)
		for _, oracle := range []transversal.WitnessOracle{
			engine.NewTransversalOracle(ctx, mustEngine(t, "portfolio")),
			engine.NewSession(mustEngine(t, "core")).NewTransversalOracle(ctx),
		} {
			got, err := transversal.ViaOracle(h, oracle)
			if err != nil {
				t.Fatalf("%v: %v", h, err)
			}
			if !got.Canonical().EqualAsFamily(want) {
				t.Errorf("oracle tr(%v) = %v, want %v", h, got.Canonical(), want)
			}
		}
	}
}
