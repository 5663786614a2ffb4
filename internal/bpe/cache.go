package bpe

import (
	"encoding/binary"
	"math/bits"
)

// The piece-encoding cache. Prompt-shaped traffic is overwhelmingly
// repeated pretokenizer pieces (Zipfian words, the same punctuation and
// indentation over and over), but the streaming encoder paid the full
// vocab-DFA scan plus the mutex-guarded local-validity lookups — or the
// merge-loop fallback — for every occurrence. The cache memoizes the
// certified encoding per distinct piece so each one is computed once:
// hits emit straight from the cached ranks, bypassing the scan, the
// validity check, and the fallback alike. Because the cache stores the
// final certified output (post-validity or post-fallback), a hit is
// byte-identical to a recomputation by construction — the differential
// and fuzz pins are unchanged.
//
// The structure is an open-addressed hash table of self-contained
// 32-byte slots, two to a cache line. A slot holds the piece's first 16
// bytes as two zero-padded little-endian words, its length, and up to
// three ranks inline. On prompt traffic every piece is at most 16 bytes
// and all but about one in 60,000 encode to at most three ranks, so a
// hit is two word compares and a length compare on one cache line, with
// no pointer chased. Only the rare overflow lives in fixed-capacity
// arenas: the bytes past 16 of a longer key, and the rank lists longer
// than three.
// The hash is a multiply-mix of the same two words, computed once per
// piece and shared by the probe and the insert. Nothing is allocated
// per entry, so the warm serving loop stays at 0 allocs/op (CI-gated).
// When the entry cap or an arena is reached, the whole cache is reset
// wholesale — entries are counted as evictions — which is both
// allocation-free and O(slots), and on Zipfian traffic the hot pieces
// re-enter within a few hundred pieces. Each Stream owns one cache;
// pooled streams keep theirs across Release/Acquire, so a tokenizer's
// pool doubles as a warm-cache pool.

const (
	// cacheSlotBits sizes the slot table (1<<cacheSlotBits slots);
	// cacheMaxEntries caps entries at a 3/4 load factor so probes stay
	// short. Sized for the distinct-piece working set of prompt-shaped
	// traffic: ~28k distinct multi-byte pieces per MiB of Zipfian text,
	// so the table must hold several tens of thousands of entries or
	// the wholesale resets thrash (an undersized cache measured ~58%
	// hits where this sizing reaches the workload's ~85% cold-pass
	// ceiling).
	cacheSlotBits   = 16
	cacheSlots      = 1 << cacheSlotBits
	cacheMaxEntries = cacheSlots * 3 / 4
	// cacheWordKeyLen is the key prefix stored inline as two words;
	// cacheInlineRanks is how many ranks a slot holds inline.
	cacheWordKeyLen  = 16
	cacheInlineRanks = 3
	// cacheTailArenaBytes backs the bytes past cacheWordKeyLen of longer
	// keys (addressed by a uint16 offset, so at most 64 KiB).
	cacheTailArenaBytes = 64 << 10
	// cacheRankArenaLen backs the rank lists longer than
	// cacheInlineRanks.
	cacheRankArenaLen = 48 << 10
	// maxCachedPieceLen bounds cacheable pieces: longer ones (rare —
	// giant number or whitespace runs) are encoded directly and counted
	// as misses, so one outlier cannot flush the arena.
	maxCachedPieceLen = 64
)

// cacheSlot is one memoized piece. keyLen 0 marks an empty slot
// (single-byte and empty pieces are never cached).
type cacheSlot struct {
	w0, w1  uint64                  // key bytes 0–15, zero-padded
	r       [cacheInlineRanks]int32 // the ranks, or r[0] = rank-arena offset when nRanks > cacheInlineRanks
	keyLen  uint8
	nRanks  uint8
	tailOff uint16 // tail-arena offset of key bytes 16.. when keyLen > cacheWordKeyLen
}

// pieceKey is a piece's cache key: its first 16 bytes as zero-padded
// words and the hash of the whole piece.
type pieceKey struct {
	w0, w1 uint64
	h      uint32
}

// pieceCache is the per-stream memo table. Zero value is invalid; use
// newPieceCache.
type pieceCache struct {
	slots   *[cacheSlots]cacheSlot
	entries int
	tails   []byte
	ranks   []int32

	hits, misses, evictions uint64
}

func newPieceCache() *pieceCache {
	return &pieceCache{
		slots: new([cacheSlots]cacheSlot),
		tails: make([]byte, 0, cacheTailArenaBytes),
		ranks: make([]int32, 0, cacheRankArenaLen),
	}
}

// Multiply-mix constants (odd 64-bit values with well-spread bits).
const (
	mixK0 = 0x9e3779b97f4a7c15
	mixK1 = 0xc2b2ae3d27d4eb4f
	mixK2 = 0xd6e8feb86659fd93
)

// makePieceKey loads piece (2..maxCachedPieceLen bytes) into its key
// words and hashes it. Pieces of up to 8 bytes are loaded with at most
// three overlapping reads and no loop; bytes past 16 are folded into
// the hash only.
func makePieceKey(p []byte) pieceKey {
	var w0, w1 uint64
	n := len(p)
	le := binary.LittleEndian
	switch {
	case n >= 16:
		w0, w1 = le.Uint64(p), le.Uint64(p[8:])
	case n > 8:
		w0 = le.Uint64(p)
		w1 = le.Uint64(p[n-8:]) >> (uint(16-n) * 8)
	case n == 8:
		w0 = le.Uint64(p)
	case n >= 4:
		w0 = uint64(le.Uint32(p)) | uint64(le.Uint32(p[n-4:]))>>(uint(8-n)*8)<<32
	default:
		// 1–3 bytes: first, middle and last coincide as needed.
		w0 = uint64(p[0]) | uint64(p[n/2])<<(8*(n/2)) | uint64(p[n-1])<<(8*(n-1))
	}
	x := w1
	for i := cacheWordKeyLen; i < n; i += 8 {
		var t uint64
		if i+8 <= n {
			t = le.Uint64(p[i:])
		} else {
			for j := n - 1; j >= i; j-- {
				t = t<<8 | uint64(p[j])
			}
		}
		x = (x ^ t) * mixK2
	}
	h := (w0+uint64(n))*mixK0 ^ bits.RotateLeft64(x*mixK1, 29)
	h ^= h >> 32
	h *= mixK2
	return pieceKey{w0: w0, w1: w1, h: uint32(h >> 32)}
}

// lookup returns the cached ranks for piece, or nil. The returned slice
// aliases the cache and is valid until the next insert.
func (c *pieceCache) lookup(k *pieceKey, piece []byte) []int32 {
	for i := k.h; ; i++ {
		sl := &c.slots[i&(cacheSlots-1)]
		if sl.keyLen == 0 {
			return nil
		}
		if sl.w0 == k.w0 && sl.w1 == k.w1 && int(sl.keyLen) == len(piece) &&
			(len(piece) <= cacheWordKeyLen || c.tailEqual(sl, piece)) {
			if sl.nRanks <= cacheInlineRanks {
				return sl.r[:sl.nRanks]
			}
			off := sl.r[0]
			return c.ranks[off : off+int32(sl.nRanks)]
		}
	}
}

// tailEqual compares a long key's bytes past cacheWordKeyLen.
func (c *pieceCache) tailEqual(sl *cacheSlot, piece []byte) bool {
	tail := piece[cacheWordKeyLen:]
	off := int(sl.tailOff)
	return string(c.tails[off:off+len(tail)]) == string(tail)
}

// insert memoizes piece -> ranks, resetting the cache first if the
// entry cap or an arena it needs is reached. piece must be 2 to
// maxCachedPieceLen bytes.
func (c *pieceCache) insert(k *pieceKey, piece []byte, ranks []int32) {
	tail := len(piece) - cacheWordKeyLen
	if c.entries == cacheMaxEntries ||
		tail > 0 && len(c.tails)+tail > cacheTailArenaBytes ||
		len(ranks) > cacheInlineRanks && len(c.ranks)+len(ranks) > cacheRankArenaLen {
		c.reset()
	}
	i := k.h
	for c.slots[i&(cacheSlots-1)].keyLen != 0 {
		i++
	}
	sl := &c.slots[i&(cacheSlots-1)]
	sl.w0, sl.w1 = k.w0, k.w1
	sl.keyLen, sl.nRanks = uint8(len(piece)), uint8(len(ranks))
	if tail > 0 {
		sl.tailOff = uint16(len(c.tails))
		c.tails = append(c.tails, piece[cacheWordKeyLen:]...)
	}
	if len(ranks) <= cacheInlineRanks {
		copy(sl.r[:], ranks)
	} else {
		sl.r[0] = int32(len(c.ranks))
		c.ranks = append(c.ranks, ranks...)
	}
	c.entries++
}

// reset discards every entry (counted as evictions) and clears the
// arenas in place — no allocation, O(slots).
func (c *pieceCache) reset() {
	c.evictions += uint64(c.entries)
	clear(c.slots[:])
	c.entries = 0
	c.tails = c.tails[:0]
	c.ranks = c.ranks[:0]
}
