package core

import (
	"math/rand"
	"testing"
)

// memoKeys returns n distinct keys of 3..3+maxBody words, each starting
// with a header word like the walker's (never empty, never all zero).
func memoKeys(r *rand.Rand, n, maxBody int) [][]uint64 {
	keys := make([][]uint64, n)
	for i := range keys {
		k := []uint64{uint64(i), 7, 3}
		for j := r.Intn(maxBody + 1); j > 0; j-- {
			k = append(k, r.Uint64())
		}
		keys[i] = k
	}
	return keys
}

// TestMemoFindsEveryLiveKey checks the open-addressed index: every key
// inserted since the last epoch reset is found, keys never inserted are
// not, and an epoch reset forgets everything.
func TestMemoFindsEveryLiveKey(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewMemo(64)
	keys := memoKeys(r, 400, 40)
	live := map[int]bool{}
	for i, k := range keys {
		before := m.Stats().Evictions
		m.insert(k)
		if m.Stats().Evictions != before {
			clear(live)
		}
		live[i] = true
		for j := 0; j <= i; j++ {
			if got := m.lookup(keys[j]); got != live[j] {
				t.Fatalf("after inserting key %d: lookup(key %d) = %v, live = %v", i, j, got, live[j])
			}
		}
		if j := i + 1; j < len(keys) && m.lookup(keys[j]) {
			t.Fatalf("key %d found before it was inserted", j)
		}
	}
	if m.Stats().Evictions == 0 {
		t.Fatalf("400 keys through a 64-entry memo caused no epoch reset: %+v", m.Stats())
	}
	m.reset()
	for j := range keys {
		if m.lookup(keys[j]) {
			t.Fatalf("key %d survived an epoch reset", j)
		}
	}
}

// TestMemoWithinBudget drives memos of several sizes with keys of mixed
// length — short ones that end epochs on the entry bound, long ones that
// end them on the arena bound — and checks after every insert that the
// arena never grows past its word budget, the index never past its
// initial size, and the entry count never past its bound.
func TestMemoWithinBudget(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, entries := range []int{1, 4, 64, 1000} {
		m := NewMemo(entries)
		budget := entries * memoWordsPerEntry
		var slots int
		for _, k := range memoKeys(r, 5000, 3*memoWordsPerEntry) {
			m.insert(k)
			if slots == 0 && m.slots != nil {
				slots = len(m.slots)
				if slots < 2*entries || slots >= 4*entries {
					t.Fatalf("entries=%d: index has %d slots, want in [2e, 4e)", entries, slots)
				}
			}
			if cap(m.arena) > budget {
				t.Fatalf("entries=%d: arena capacity %d words exceeds the %d-word budget", entries, cap(m.arena), budget)
			}
			if slots != 0 && (len(m.slots) != slots || cap(m.slots) != slots) {
				t.Fatalf("entries=%d: index resized from %d to %d slots", entries, slots, len(m.slots))
			}
			if m.count > entries {
				t.Fatalf("entries=%d: %d keys resident", entries, m.count)
			}
		}
		if st := m.Stats(); st.Evictions == 0 || st.Inserts == 0 {
			t.Errorf("entries=%d: no epoch reset or no insert: %+v", entries, st)
		}
	}
}

// TestMemoSteadyStateAllocFree is the fixed-footprint guard: once warm-up
// has allocated the index and grown the arena to its budget, lookups (hits
// and misses), inserts (including ones that end an epoch) and explicit
// resets allocate nothing.
func TestMemoSteadyStateAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewMemo(256) // an 8192-word budget: the arena doubles once
	keys := memoKeys(r, 2000, 2*memoWordsPerEntry)
	for _, k := range keys { // warm-up: crosses an epoch reset
		m.insert(k)
	}
	if cap(m.arena) != m.maxWords || m.Stats().Evictions == 0 {
		t.Fatalf("warm-up left arena capacity %d of %d words, stats %+v", cap(m.arena), m.maxWords, m.Stats())
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		m.insert(keys[i%len(keys)])
		i++
	}); allocs != 0 {
		t.Errorf("insert allocates %.2f per call, want 0", allocs)
	}
	if m.Stats().Evictions == 0 {
		t.Fatal("the insert loop never crossed an epoch reset")
	}
	m.reset()
	for _, k := range keys[:10] {
		m.insert(k)
	}
	if allocs := testing.AllocsPerRun(1000, func() {
		m.lookup(keys[i%20]) // keys 0..9 hit, 10..19 miss
		i++
	}); allocs != 0 {
		t.Errorf("lookup allocates %.2f per call, want 0", allocs)
	}
	if st := m.Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("lookup loop saw only hits or only misses: %+v", st)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		m.insert(keys[i%len(keys)])
		i++
		m.reset()
	}); allocs != 0 {
		t.Errorf("reset allocates %.2f per call, want 0", allocs)
	}
}
