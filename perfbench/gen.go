package main

// Input generation. Every workload is a pure function of its seed: the same
// seed yields byte-identical request bodies in the same order, so a parent
// commit and a change replay exactly the same instances.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"dualspace/internal/gen"
	"dualspace/internal/hgio"
	"dualspace/internal/hypergraph"
	"dualspace/internal/itemsets"
	"dualspace/internal/service"
)

// Sizes of the fixed request sequences. One pass is the unit of timed work:
// a run replays whole passes, so both sides of a comparison time the same
// instance mix however fast they are.
const (
	hitPassOps     = 1800 // decide-hit requests per pass: 15 classes × 6 tags × 20
	missPool       = 2048 // decide-miss distinct instances (2× the default 1024-entry cache)
	batchPool      = 2560 // batch-cluster distinct instances per pass
	batchRows      = 64   // rows per /v1/batch body
	batchNewRows   = 16   // pool instances introduced by each batch
	batchRepeats   = 8    // instances repeated from the two previous batches
	batchReplicas  = 2
	logShare       = 4 // every logShare-th batch pool instance is pre-written to the verdict log
	mineDatasets   = 55
	mineRepeatPass = 2   // each dataset is mined this many times per pass
	mineBorderMin  = 170 // |IS+| + |IS−| band a mine dataset must fall in
	mineBorderMax  = 200
)

// instance is one DUAL question with its ground truth.
type instance struct {
	g, h string // hgio texts, as sent
	dual bool
}

// renderHG writes a hypergraph in the hgio line format with vertex names
// prefix+"v"+index.
func renderHG(h *hypergraph.Hypergraph, prefix string) string {
	var b strings.Builder
	for i := 0; i < h.M(); i++ {
		first := true
		h.Edge(i).ForEach(func(v int) bool {
			if !first {
				b.WriteByte(' ')
			}
			first = false
			fmt.Fprintf(&b, "%sv%d", prefix, v)
			return true
		})
		b.WriteByte('\n')
	}
	return b.String()
}

// retag renames every vertex of a text by prefixing tag; renaming never
// leaves a canonical class.
func retag(text, tag string) string {
	if tag == "" {
		return text
	}
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		fields := strings.Fields(line)
		for i, f := range fields {
			fields[i] = tag + f
		}
		b.WriteString(strings.Join(fields, " "))
		b.WriteByte('\n')
	}
	return b.String()
}

func (in instance) retag(tag string) instance {
	return instance{g: retag(in.g, tag), h: retag(in.h, tag), dual: in.dual}
}

// canonKey is the server's cache identity of an instance (minus the engine
// name): the canonical fingerprints of g and h after parsing exactly as
// the service parses.
type canonKey struct{ fg, fh hypergraph.Fingerprint }

func keyOf(in instance) (canonKey, *hypergraph.Hypergraph, *hypergraph.Hypergraph, error) {
	hs, _, err := hgio.ReadHypergraphsLimited(service.DefaultLimits,
		strings.NewReader(in.g), strings.NewReader(in.h))
	if err != nil {
		return canonKey{}, nil, nil, err
	}
	g, h := hs[0].Canonical(), hs[1].Canonical()
	return canonKey{g.Fingerprint(), h.Fingerprint()}, g, h, nil
}

// hitClasses is decide-hit's working set: the self-dual triangle plus dual
// and near-dual matchings 2..8, 15 canonical classes in all.
func hitClasses() []instance {
	tri := "a b\nb c\na c\n"
	out := []instance{{g: tri, h: tri, dual: true}}
	for k := 2; k <= 8; k++ {
		g, h := gen.Matching(k), gen.MatchingDual(k)
		out = append(out,
			instance{g: renderHG(g, ""), h: renderHG(h, ""), dual: true},
			instance{g: renderHG(g, ""), h: renderHG(gen.DropEdge(h, h.M()-1), ""), dual: false})
	}
	return out
}

var hitTags = []string{"", "x_", "yy_", "q7_", "node_", "w_"}

// hitPass is one pass of decide-hit: every class equally often, each under
// every rename tag equally often, in seeded order. Only the order depends
// on the seed, so every seed asks for the same work.
func hitPass(seed int64) []instance {
	r := rand.New(rand.NewSource(seed))
	classes := hitClasses()
	out := make([]instance, 0, hitPassOps)
	for i := 0; len(out) < hitPassOps; i++ {
		in := classes[i%len(classes)]
		out = append(out, in.retag(hitTags[(i/len(classes))%len(hitTags)]))
	}
	r.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// distinctPool draws n canonically distinct random instances: exact dual
// pairs (gen.RandomDualPair) and, with probability 1/2, the same pair with
// one dual edge dropped (never dual). Draws whose canonical key repeats an
// earlier one are discarded, so no two pool members share a cache key.
func distinctPool(r *rand.Rand, n, nMin, nSpan, mMin, mSpan int) ([]instance, error) {
	seen := make(map[canonKey]bool, n)
	out := make([]instance, 0, n)
	for len(out) < n {
		g, h := gen.RandomDualPair(r, nMin+r.Intn(nSpan), mMin+r.Intn(mSpan), 0.5)
		in := instance{dual: true}
		if r.Intn(2) == 1 && h.M() >= 2 {
			h = gen.DropEdge(h, r.Intn(h.M()))
			in.dual = false
		}
		in.g, in.h = renderHG(g, ""), renderHG(h, "")
		k, _, _, err := keyOf(in)
		if err != nil {
			return nil, err
		}
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, in)
	}
	return out, nil
}

// missPass is decide-miss's pass: missPool distinct instances dense enough
// that the portfolio picks core-parallel for about half of them at
// GOMAXPROCS=2. Replayed cyclically, twice the cache size, the LRU evicts
// every key before its next use.
func missPass(seed int64) ([]instance, error) {
	return distinctPool(rand.New(rand.NewSource(seed)), missPool, 12, 5, 10, 7)
}

// batchOp is one /v1/batch request of batch-cluster.
type batchOp struct {
	replica int
	rows    []instance
}

// batchWorkload is batch-cluster's pass plus the pool members pre-written
// to every replica's verdict log.
type batchWorkload struct {
	pool   []instance
	logged []instance
	pass   []batchOp
}

// batchPass builds batch-cluster: each 64-row batch introduces batchNewRows
// pool instances in pool order, repeats batchRepeats from the two previous
// batches (cross-batch cache hits and peer fills), and fills the remaining
// rows with byte-identical duplicates and renamed copies of those (in-batch
// dedup). Each batch goes to a seeded-random replica.
func batchPass(seed int64) (*batchWorkload, error) {
	r := rand.New(rand.NewSource(seed))
	pool, err := distinctPool(r, batchPool, 8, 4, 6, 5)
	if err != nil {
		return nil, err
	}
	w := &batchWorkload{pool: pool}
	for i := 0; i < len(pool); i += logShare {
		w.logged = append(w.logged, pool[i])
	}
	for start := 0; start < len(pool); start += batchNewRows {
		picked := append([]instance(nil), pool[start:start+batchNewRows]...)
		prev := pool[max(0, start-2*batchNewRows):start]
		for i := 0; i < batchRepeats && len(prev) > 0; i++ {
			picked = append(picked, prev[r.Intn(len(prev))])
		}
		rows := append([]instance(nil), picked...)
		for len(rows) < batchRows {
			in := picked[r.Intn(len(picked))]
			if r.Intn(2) == 1 {
				in = in.retag(hitTags[1+r.Intn(len(hitTags)-1)])
			}
			rows = append(rows, in)
		}
		r.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		w.pass = append(w.pass, batchOp{replica: r.Intn(batchReplicas), rows: rows})
	}
	return w, nil
}

// mineCase is one /v1/mine dataset with its ground-truth borders (sorted
// name-list renderings, computed by itemsets.BordersApriori).
type mineCase struct {
	data                   string
	z                      int
	maxFrequent, minInfreq []string
	dataset                *itemsets.Dataset
}

// mineSets generates the mine datasets: planted patterns over 18–20 items
// with dropout and background noise, mined at a support threshold of a
// twentieth of the rows, keeping those whose borders hold
// mineBorderMin..mineBorderMax elements.
func mineSets(seed int64) ([]*mineCase, error) {
	r := rand.New(rand.NewSource(seed))
	out := make([]*mineCase, 0, mineDatasets)
	for len(out) < mineDatasets {
		nItems := 18 + r.Intn(3)
		var patterns [][]int
		for p := 0; p < 6; p++ {
			perm := r.Perm(nItems)
			patterns = append(patterns, perm[:3+r.Intn(4)])
		}
		d := itemsets.GeneratePlanted(r, nItems, 200, patterns, 0.15, 0.08)
		var b strings.Builder
		for i := 0; i < d.NumRows(); i++ {
			first := true
			d.Row(i).ForEach(func(v int) bool {
				if !first {
					b.WriteByte(' ')
				}
				first = false
				fmt.Fprintf(&b, "i%d", v)
				return true
			})
			b.WriteByte('\n')
		}
		mc := &mineCase{data: b.String()}
		// Ground truth comes from the text as the server will parse it
		// (blank rows are skipped, names are interned in order of
		// appearance), not from d.
		pd, sy, err := hgio.ReadDatasetLimited(strings.NewReader(mc.data), service.DefaultLimits)
		if err != nil {
			return nil, err
		}
		mc.dataset = pd
		mc.z = pd.NumRows() / 20
		bs, err := itemsets.BordersApriori(pd, mc.z)
		if err != nil {
			return nil, err
		}
		// Keep datasets of similar difficulty: a mine makes about one duality
		// check per border element, and the datasets' slowest member sets
		// the pass's tail, so an unbounded border size would make the
		// seed, not the program, decide the tail.
		if n := bs.MaxFrequent.M() + bs.MinInfrequent.M(); n < mineBorderMin || n > mineBorderMax {
			continue
		}
		mc.maxFrequent = renderFamily(bs.MaxFrequent, sy)
		mc.minInfreq = renderFamily(bs.MinInfrequent, sy)
		out = append(out, mc)
	}
	return out, nil
}

// renderFamily renders a family of item sets as sorted, comma-joined name
// lists, the comparison form for mine answers.
func renderFamily(h *hypergraph.Hypergraph, sy *hgio.Symbols) []string {
	out := make([]string, 0, h.M())
	for i := 0; i < h.M(); i++ {
		var names []string
		h.Edge(i).ForEach(func(v int) bool {
			names = append(names, sy.Name(v))
			return true
		})
		out = append(out, setKey(names))
	}
	sort.Strings(out)
	return out
}

func setKey(names []string) string {
	s := append([]string(nil), names...)
	sort.Strings(s)
	return strings.Join(s, ",")
}

// decideBody is a /v1/decide body (and a /v1/batch row, minus the newline).
func decideBody(in instance) []byte {
	b, err := json.Marshal(struct {
		G string `json:"g"`
		H string `json:"h"`
	}{in.g, in.h})
	if err != nil {
		panic(err) // two strings always marshal
	}
	return b
}

func mineBody(mc *mineCase) []byte {
	b, err := json.Marshal(struct {
		Data string `json:"data"`
		Z    int    `json:"z"`
	}{mc.data, mc.z})
	if err != nil {
		panic(err)
	}
	return b
}
