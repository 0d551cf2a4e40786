package main

import (
	"bytes"
	"testing"

	"dualspace/internal/batch"
)

// passBytes concatenates every request body of a workload's pass.
func passBytes(t *testing.T, name string, seed int64) []byte {
	t.Helper()
	w, err := build(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	for _, o := range w.pass {
		b.WriteString(o.path)
		b.WriteByte(byte('0' + o.replica))
		b.Write(o.body)
	}
	return b.Bytes()
}

func TestSameSeedSameBytes(t *testing.T) {
	for _, name := range []string{"decide-hit", "decide-miss", "batch-cluster", "mine"} {
		a, b := passBytes(t, name, 7), passBytes(t, name, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 generated different request bytes", name)
		}
		if bytes.Equal(a, passBytes(t, name, 8)) && name != "mine" {
			t.Errorf("%s: seeds 7 and 8 generated identical requests", name)
		}
	}
}

// No two decide-miss requests of a pass share a cache key, and the pass
// holds more keys than the service's default 1024-entry cache.
func TestMissFingerprintsDistinct(t *testing.T) {
	pool, err := missPass(3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[canonKey]int{}
	for i, in := range pool {
		k, _, _, err := keyOf(in)
		if err != nil {
			t.Fatal(err)
		}
		if j, dup := seen[k]; dup {
			t.Fatalf("requests %d and %d share a canonical fingerprint", j, i)
		}
		seen[k] = i
	}
	if len(seen) <= 1024 {
		t.Fatalf("%d distinct keys do not exceed the 1024-entry cache", len(seen))
	}
}

// The decide-hit classes are canonically distinct, every rename tag stays
// inside its class, and no cache shard receives more classes than it holds,
// so after warm-up every timed request is a hit.
func TestHitClassesFitCache(t *testing.T) {
	classes := hitClasses()
	perShard := (1024 + batch.DefaultShards - 1) / batch.DefaultShards
	load := map[uint64]int{}
	seen := map[canonKey]bool{}
	for _, in := range classes {
		k, _, _, err := keyOf(in)
		if err != nil {
			t.Fatal(err)
		}
		if seen[k] {
			t.Fatal("two decide-hit classes share a canonical fingerprint")
		}
		seen[k] = true
		for _, tag := range hitTags {
			if kt, _, _, _ := keyOf(in.retag(tag)); kt != k {
				t.Fatalf("tag %q changed the canonical key", tag)
			}
		}
		load[batch.NewKey("portfolio", k.fg, k.fh).Hash64()&(batch.DefaultShards-1)]++
	}
	for shard, n := range load {
		if n > perShard {
			t.Fatalf("shard %d receives %d classes, holds %d", shard, n, perShard)
		}
	}
	for _, in := range hitPass(1) {
		k, _, _, _ := keyOf(in)
		if !seen[k] {
			t.Fatal("a decide-hit request falls outside the warmed classes")
		}
	}
}

// Every batch-cluster row belongs to the pool, and the pre-written log
// covers a quarter of it.
func TestBatchPass(t *testing.T) {
	w, err := batchPass(5)
	if err != nil {
		t.Fatal(err)
	}
	pool := map[canonKey]bool{}
	for _, in := range w.pool {
		k, _, _, _ := keyOf(in)
		pool[k] = true
	}
	if len(pool) != len(w.pool) {
		t.Fatal("batch pool repeats a canonical key")
	}
	for _, b := range w.pass {
		if len(b.rows) != batchRows {
			t.Fatalf("batch of %d rows", len(b.rows))
		}
		for _, in := range b.rows {
			if k, _, _, _ := keyOf(in); !pool[k] {
				t.Fatal("batch row outside the pool")
			}
		}
	}
	if len(w.logged) != len(w.pool)/logShare {
		t.Fatalf("%d logged of %d", len(w.logged), len(w.pool))
	}
}

// The witness re-check rejects a witness that misses a g-edge or contains
// an h-edge, and accepts a genuine new transversal.
func TestCheckVerdictWitness(t *testing.T) {
	es := &edgeSets{g: parseEdges("a b\nc d\n"), h: parseEdges("a c\na d\nb c\n")}
	good := &verdict{Reason: reasonNewTransversal, Witness: []string{"b", "d"}, CoWitness: []string{"a", "c"}}
	if err := checkVerdict(good, false, es); err != nil {
		t.Fatalf("genuine witness rejected: %v", err)
	}
	for _, bad := range []*verdict{
		{Reason: reasonNewTransversal, Witness: []string{"a"}, CoWitness: []string{"b", "c", "d"}},
		{Reason: reasonNewTransversal, Witness: []string{"a", "c"}, CoWitness: []string{"b", "d"}},
		{Reason: reasonNewTransversal, Witness: []string{"b", "d"}, CoWitness: []string{"a"}},
		{Dual: true, Reason: "dual"},
	} {
		if err := checkVerdict(bad, false, es); err == nil {
			t.Errorf("accepted %+v", bad)
		}
	}
}
