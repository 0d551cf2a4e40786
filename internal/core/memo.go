package core

// Cross-node subinstance memoization. The Boros–Makino tree re-derives
// structurally identical subinstances across branches — on dense and
// self-dual families most internal nodes have a twin elsewhere in the tree
// whose projected pair (G_Sα, H_Sα) is word-for-word equal — and, through
// the incremental applications (border/key/coterie loops, repeated service
// traffic), across separate decisions too. A Memo records "the subtree
// rooted at this projected subinstance contains only done leaves" and lets
// the serial DFS skip such subtrees wholesale.
//
// Soundness: the decomposition tree below a node is a deterministic function
// of the ordered projected pair alone — every rule of marksmall/process and
// every child-set construction depends only on the projections, and child
// projections are determined by parent projections (DESIGN.md §7 gives the
// induction). The DFS stops at the first fail leaf, so every subtree it
// completes is all-done; those are exactly the entries a Memo holds, and a
// hit therefore never hides a fail leaf. Keys are full encodings (not
// hashes): lookups compare the stored words, so hash collisions cannot
// produce a false hit.
//
// Footprint: the memo is a fixed budget, not a growing cache. One flat
// open-addressed index (2× the entry bound, rounded up to a power of two,
// 16 bytes a slot) locates keys stored back to back in one arena of at
// most entries×memoWordsPerEntry words (1 MiB at the default 4096
// entries). The index is allocated on the first insert; the arena doubles
// from a small start up to the budget and never past it, so a session that
// only ever sees small instances keeps a small arena. A full index or
// arena is reset wholesale (epoch eviction: clear the index, truncate the
// arena, keep both allocations) rather than thrashing entry by entry, so
// once the arena has reached the budget, lookups, inserts and resets
// allocate nothing. Keys larger than a quarter of the budget are never
// memoized. Hit/miss/insert/eviction counters are atomic so a service can
// report them from /statsz while the owning worker keeps deciding.

import (
	"math/bits"
	"slices"
	"sync/atomic"
)

// DefaultMemoEntries is the subinstance-memo bound used when a caller asks
// for a memo without sizing it (engine.NewSession, dualserved's -memo
// default).
const DefaultMemoEntries = 4096

// memoWordsPerEntry sizes the key arena relative to the entry bound: the
// arena holds entries×memoWordsPerEntry words. Typical keys are far larger
// than 32 words (a header plus one word per projected edge on ≤ 64
// vertices), so at the default size the arena, not the entry count, ends
// most epochs on large instances, while small-key workloads keep the full
// entry count. 32 was chosen on the service benchmark: with every default
// decision on a memoizing session, 128 words an entry (4 MiB) doubled
// mine's peak RSS, and cutting the entry count instead cost batch-cluster
// its memo hits.
const memoWordsPerEntry = 32

// memoMinArenaWords is the arena's first allocation (32 KiB), capped by the
// budget.
const memoMinArenaWords = 4096

// MemoStats is a point-in-time snapshot of a memo's counters.
type MemoStats struct {
	// Hits and Misses count lookups (one per internal tree node visited by a
	// memo-carrying walker).
	Hits, Misses int64
	// Inserts counts completed all-done subtrees recorded.
	Inserts int64
	// Entries is the current table size; Evictions counts entries dropped by
	// epoch resets.
	Entries, Evictions int64
}

// Memo is a fixed-footprint, collision-checked table of all-done
// subinstances. It is owned by a single walker (a Decider pins one); only
// the stats counters may be read concurrently.
type Memo struct {
	maxEntries int
	maxWords   int
	// slots is the open-addressed index (linear probing, load ≤ 1/2); a
	// slot with n == 0 is empty, since every key carries a 3-word header.
	slots []memoSlot
	shift uint // 64 − log₂ len(slots): slot = (hash·φ) >> shift
	arena []uint64
	count int

	hits, misses, inserts, evictions atomic.Int64
	entries                          atomic.Int64
}

// memoSlot locates one stored key inside the arena; hash rejects most
// non-matching probes without touching the arena.
type memoSlot struct {
	hash   uint64
	off, n uint32
}

// NewMemo returns a memo bounded to the given number of entries
// (0 or negative: DefaultMemoEntries) and entries×32 words of key storage.
// Nothing is allocated until the first insert.
func NewMemo(entries int) *Memo {
	if entries <= 0 {
		entries = DefaultMemoEntries
	}
	return &Memo{
		maxEntries: entries,
		maxWords:   entries * memoWordsPerEntry,
		shift:      uint(64 - bits.Len(uint(2*entries-1))),
	}
}

// Stats snapshots the counters.
func (m *Memo) Stats() MemoStats {
	return MemoStats{
		Hits:      m.hits.Load(),
		Misses:    m.misses.Load(),
		Inserts:   m.inserts.Load(),
		Entries:   m.entries.Load(),
		Evictions: m.evictions.Load(),
	}
}

func memoHash(key []uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, w := range key {
		h ^= w
		h *= prime64
	}
	return h
}

// probe returns the index of key's slot, or of the empty slot where key
// would go, and whether key is present.
func (m *Memo) probe(key []uint64, h uint64) (int, bool) {
	mask := len(m.slots) - 1
	for i := int((h * 0x9e3779b97f4a7c15) >> m.shift); ; i = (i + 1) & mask {
		sl := &m.slots[i]
		if sl.n == 0 {
			return i, false
		}
		if sl.hash == h && slices.Equal(m.arena[sl.off:sl.off+sl.n], key) {
			return i, true
		}
	}
}

// lookup reports whether key is recorded as an all-done subinstance.
//
//dual:allocfree
func (m *Memo) lookup(key []uint64) bool {
	if m.count > 0 {
		if _, ok := m.probe(key, memoHash(key)); ok {
			m.hits.Add(1)
			return true
		}
	}
	m.misses.Add(1)
	return false
}

// insert records key as an all-done subinstance. Oversized keys are
// ignored; a full index or arena is reset first (epoch eviction).
//
//dual:allocfree
func (m *Memo) insert(key []uint64) {
	if len(key) > m.maxWords/4 {
		return // a handful of such keys would monopolize the arena
	}
	if m.slots == nil {
		m.slots = make([]memoSlot, 1<<(64-m.shift)) //dual:allow(allocfree: one-time warm-up allocation of the fixed index)
	}
	if m.count >= m.maxEntries || len(m.arena)+len(key) > m.maxWords {
		m.reset()
	}
	h := memoHash(key)
	i, ok := m.probe(key, h)
	if ok {
		return // already recorded
	}
	if len(m.arena)+len(key) > cap(m.arena) {
		m.grow(len(key))
	}
	off := len(m.arena)
	m.arena = append(m.arena, key...) // within capacity: grown above
	m.slots[i] = memoSlot{hash: h, off: uint32(off), n: uint32(len(key))}
	m.count++
	m.inserts.Add(1)
	m.entries.Store(int64(m.count))
}

// grow doubles the arena's capacity, or raises it to fit n more words,
// never past the budget (insert has already reset a full arena).
func (m *Memo) grow(n int) {
	c := min(m.maxWords, max(2*cap(m.arena), len(m.arena)+n, memoMinArenaWords))
	m.arena = append(make([]uint64, 0, c), m.arena...) //dual:allow(allocfree: warm-up growth, bounded by the budget)
}

// reset drops every entry (one epoch) without releasing storage.
func (m *Memo) reset() {
	m.evictions.Add(int64(m.count))
	clear(m.slots)
	m.arena = m.arena[:0]
	m.count = 0
	m.entries.Store(0)
}
