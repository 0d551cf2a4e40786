package core_test

import (
	"math/rand"
	"testing"

	"dualspace/internal/core"
	"dualspace/internal/gen"
	"dualspace/internal/hypergraph"
	"dualspace/internal/transversal"
)

// TestMemoDifferential is the soundness guard for the cross-node
// subinstance memo: one memo-carrying Decider decides a long mixed sequence
// of instances — so entries recorded by earlier decisions are live for later
// ones — and every verdict must match the memo-free reference decision, with
// valid witnesses on the non-dual side. The sequence deliberately repeats
// and perturbs instances to force cross-decision hits. It runs at the
// default budget and at a tiny one (16 entries, 512 key words), where epoch
// resets land in the middle of the sequence — often in the middle of a
// decision — and must not change a verdict.
func TestMemoDifferential(t *testing.T) {
	for _, entries := range []int{0, 16} {
		d := core.NewDecider()
		d.EnableMemo(entries)
		memoDifferential(t, d)
		st := d.MemoStats()
		if st.Hits == 0 {
			t.Errorf("entries=%d: memo recorded no hits over the differential sequence (stats %+v)", entries, st)
		}
		if st.Inserts == 0 || st.Entries == 0 {
			t.Errorf("entries=%d: memo recorded no inserts (stats %+v)", entries, st)
		}
		if entries > 0 && (st.Evictions == 0 || st.Entries > int64(entries)) {
			t.Errorf("entries=%d: want epoch resets and at most %d entries resident (stats %+v)", entries, entries, st)
		}
	}
}

func memoDifferential(t *testing.T, d *core.Decider) {
	t.Helper()
	r := rand.New(rand.NewSource(4))

	check := func(name string, g, h *hypergraph.Hypergraph) {
		t.Helper()
		want, err := core.Decide(g, h)
		if err != nil {
			t.Fatalf("%s: reference Decide: %v", name, err)
		}
		got, err := d.DecideContext(t.Context(), g, h)
		if err != nil {
			t.Fatalf("%s: memoized Decide: %v", name, err)
		}
		if got.Dual != want.Dual || got.Reason != want.Reason {
			t.Fatalf("%s: memoized verdict (dual=%v, %v), want (dual=%v, %v)",
				name, got.Dual, got.Reason, want.Dual, want.Reason)
		}
		if !got.Dual && got.Reason == core.ReasonNewTransversal {
			if !g.IsNewTransversal(got.Witness, h) {
				t.Fatalf("%s: memoized witness %v invalid", name, got.Witness)
			}
		}
	}

	// Named families (twice each: the second pass hits the memo at or near
	// the root) plus dropped-edge perturbations.
	for pass := 0; pass < 2; pass++ {
		for _, p := range gen.Families(11) {
			check(p.Name, p.G, p.H)
		}
	}
	for i := 0; i < 16; i++ {
		n := 4 + r.Intn(4)
		g := gen.Random(r, n, 3+r.Intn(4), 0.3+0.3*r.Float64())
		if g.M() == 0 || g.HasEmptyEdge() {
			continue
		}
		h := transversal.AsHypergraph(g)
		check("rand-dual", g, h)
		if h.M() >= 2 {
			check("rand-dropped", g, gen.DropEdge(h, r.Intn(h.M())))
		}
		sd := gen.SelfDualize(g, h)
		check("rand-selfdual", sd, sd)
	}
}

// TestMemoCrossDecisionHits pins the cross-decision behavior the Session
// layer relies on: deciding the same dual instance twice through one
// memoized Decider resolves the second decision almost entirely from the
// memo (the root's children are skipped), visiting strictly fewer nodes.
func TestMemoCrossDecisionHits(t *testing.T) {
	d := core.NewDecider()
	d.EnableMemo(0)
	g, h := gen.Matching(5), gen.MatchingDual(5)

	first, err := d.DecideContext(t.Context(), g, h)
	if err != nil || !first.Dual {
		t.Fatalf("first decide: %v, %v", first, err)
	}
	firstNodes := first.Stats.Nodes
	if first.Stats.MemoHits != 0 && firstNodes <= 1 {
		t.Fatalf("first decision implausibly small: %+v", first.Stats)
	}

	second, err := d.DecideContext(t.Context(), g, h)
	if err != nil || !second.Dual {
		t.Fatalf("second decide: %v, %v", second, err)
	}
	if second.Stats.MemoHits == 0 {
		t.Errorf("second decision hit the memo 0 times, want > 0")
	}
	if second.Stats.Nodes >= firstNodes {
		t.Errorf("second decision visited %d nodes, want fewer than the first's %d",
			second.Stats.Nodes, firstNodes)
	}
}

// TestMemoBounded drives a tiny memo past its entry bound and checks that
// eviction epochs happen and verdicts stay correct throughout.
func TestMemoBounded(t *testing.T) {
	d := core.NewDecider()
	d.EnableMemo(4)
	for i := 0; i < 3; i++ {
		for _, p := range gen.Families(5) {
			res, err := d.DecideContext(t.Context(), p.G, p.H)
			if err != nil {
				t.Fatalf("%s: %v", p.Name, err)
			}
			if res.Dual != p.Dual {
				t.Fatalf("%s: dual=%v, want %v", p.Name, res.Dual, p.Dual)
			}
		}
	}
	st := d.MemoStats()
	if st.Entries > 4 {
		t.Errorf("memo holds %d entries, bound is 4", st.Entries)
	}
	if st.Evictions == 0 {
		t.Errorf("expected eviction epochs on a 4-entry memo, stats %+v", st)
	}
}

// TestMemoTrSubsetOracleLoop exercises the memo through the incremental
// oracle pattern of §1 of the paper: repeated TrSubset decisions against a
// growing partial family — the canonical cross-decision reuse case. The
// enumeration must agree with the reference enumerator.
func TestMemoTrSubsetOracleLoop(t *testing.T) {
	d := core.NewDecider()
	d.EnableMemo(0)
	g := gen.Threshold(6, 2)
	partial := hypergraph.New(g.N())
	partial.EnsureIndex() // exercise the AddEdge-maintained index too
	for rounds := 0; ; rounds++ {
		if rounds > 200 {
			t.Fatal("oracle loop did not terminate")
		}
		if partial.M() == 0 {
			// Seed with a first witness exactly like transversal.ViaOracle.
			partial.AddEdge(g.MinimalizeTransversal(g.Vertices()))
			continue
		}
		res, err := d.TrSubsetContext(t.Context(), g, partial)
		if err != nil {
			t.Fatalf("TrSubset round %d: %v", rounds, err)
		}
		if res.Dual {
			break
		}
		if !g.IsNewTransversal(res.Witness, partial) {
			t.Fatalf("round %d: witness %v is not new w.r.t. partial", rounds, res.Witness)
		}
		partial.AddEdge(g.MinimalizeTransversal(res.Witness))
	}
	want := transversal.AsHypergraph(g)
	if !partial.EqualAsFamily(want) {
		t.Fatalf("oracle-driven tr(g) = %v, want %v", partial, want)
	}
}
