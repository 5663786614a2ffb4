package bpe

import (
	"bytes"
	"slices"
	"testing"
	"unsafe"

	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// distinctWords builds n distinct alphabetic words of wordLen bytes,
// space-separated: a corpus of unique multi-byte pieces, sized to churn
// through the piece cache's arenas and force wholesale resets.
func distinctWords(n, wordLen int) []byte {
	out := make([]byte, 0, n*(wordLen+1))
	for i := 0; i < n; i++ {
		// Distinct prefix: i in base 26, then padding.
		w := make([]byte, 0, wordLen)
		for v := i; ; v /= 26 {
			w = append(w, byte('a'+v%26))
			if v < 26 {
				break
			}
		}
		for len(w) < wordLen {
			w = append(w, 'q')
		}
		out = append(out, w...)
		out = append(out, ' ')
	}
	return out
}

// TestBPEWarmEncodeZeroAllocs gates the warm serving path: once a
// pooled stream's piece cache has seen the traffic, Feed and FeedBatch
// must not allocate. This is the CI allocation gate for the BPE layer
// (run alongside the core engine's ZeroAllocs tests).
func TestBPEWarmEncodeZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	chunk := workload.Prompts(21, 2048)
	sink := func(token.Token, []byte) {}
	batchSink := func([]token.Token) {}

	s := testTok.AcquireStream()
	defer testTok.ReleaseStream(s)
	for i := 0; i < 16; i++ {
		s.Feed(chunk, sink)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.Feed(chunk, sink)
	}); allocs != 0 {
		t.Errorf("warm Feed allocates %.1f per run, want 0", allocs)
	}
	for i := 0; i < 16; i++ {
		s.FeedBatch(chunk, batchSink)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		s.FeedBatch(chunk, batchSink)
	}); allocs != 0 {
		t.Errorf("warm FeedBatch allocates %.1f per run, want 0", allocs)
	}
}

// TestBPETurnoverZeroAllocs gates the whole pooled serving turn:
// acquire, feed, close, release. The pool keeps the piece cache warm
// across turns, so steady-state request handling allocates nothing.
func TestBPETurnoverZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	chunk := workload.Prompts(23, 2048)
	sink := func(token.Token, []byte) {}
	turn := func() {
		s := testTok.AcquireStream()
		s.Feed(chunk, sink)
		s.Close(sink)
		testTok.ReleaseStream(s)
	}
	for i := 0; i < 16; i++ {
		turn()
	}
	if allocs := testing.AllocsPerRun(200, turn); allocs != 0 {
		t.Errorf("warm turnover allocates %.1f per run, want 0", allocs)
	}
}

// TestCompileAblations pins the optimization ablations byte-identical:
// the sparse vocab-DFA scan and the piece cache are pure speedups, so
// disabling either (or both) must not change a single emitted token.
func TestCompileAblations(t *testing.T) {
	if testTok.VocabMachine().Sparse == nil {
		t.Fatal("default compile did not adopt the sparse vocab DFA (byte-complete vocab should)")
	}
	variants := []struct {
		name string
		opts Options
	}{
		{"no-sparse", Options{DisableSparse: true}},
		{"no-cache", Options{DisablePieceCache: true}},
		{"no-sparse-no-cache", Options{DisableSparse: true, DisablePieceCache: true}},
	}
	inputs := [][]byte{
		[]byte("Hello, world! It's 42 degrees outside."),
		[]byte("café über 日本語 🙂"),
		{0xff, 0xfe, 0x80, 0x41, 0xc2},
		workload.Prompts(13, 16<<10),
		distinctWords(400, 48),
	}
	for _, vr := range variants {
		t.Run(vr.name, func(t *testing.T) {
			tok, err := Compile(testTok.Vocab(), vr.opts)
			if err != nil {
				t.Fatal(err)
			}
			if vr.opts.DisableSparse && tok.VocabMachine().Sparse != nil {
				t.Fatal("DisableSparse compile still adopted the sparse table")
			}
			if !vr.opts.DisableSparse && tok.VocabMachine().Sparse == nil {
				t.Fatal("variant compile did not adopt the sparse table")
			}
			for _, in := range inputs {
				checkAgainstReference(t, tok, in)
				want, wrest := testTok.TokenizeBytes(in)
				got, grest := tok.TokenizeBytes(in)
				if wrest != grest || len(want) != len(got) {
					t.Fatalf("%s: %d tokens rest %d, default %d tokens rest %d",
						vr.name, len(got), grest, len(want), wrest)
				}
				for i := range got {
					if got[i] != want[i] {
						t.Fatalf("%s: token %d = %+v, default %+v", vr.name, i, got[i], want[i])
					}
				}
			}
		})
	}
}

// TestPieceCacheEviction drives enough distinct long pieces through a
// fresh tokenizer to overflow the cache arenas: wholesale resets must
// show up in the eviction counter, hits+misses must still reconcile to
// pieces, and the output must stay byte-identical to the reference.
func TestPieceCacheEviction(t *testing.T) {
	tok, err := Compile(testTok.Vocab(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 16000 distinct 48-byte words: 512 KB of key tails (the bytes past
	// 16) against the 64 KiB tail arena, so wholesale resets fire.
	input := distinctWords(16000, 48)
	checkAgainstReference(t, tok, input)

	pieces, fallbacks := tok.Counters()
	hits, misses, evictions := tok.CacheCounters()
	if pieces == 0 {
		t.Fatal("no pieces counted")
	}
	if hits+misses != pieces {
		t.Fatalf("hits %d + misses %d != pieces %d", hits, misses, pieces)
	}
	if evictions == 0 {
		t.Fatal("no evictions despite arena-overflowing distinct-piece traffic")
	}
	if misses < 16000 {
		t.Fatalf("misses %d < 16000 distinct multi-byte words", misses)
	}
	if hits == 0 {
		t.Fatal("no hits: the single-byte separators alone should hit")
	}
	if fallbacks > pieces {
		t.Fatalf("fallbacks %d > pieces %d", fallbacks, pieces)
	}
}

// TestPieceCacheKeys pins the slot layout's key handling: keys are the
// first 16 bytes as zero-padded words plus the length (and, past 16
// bytes, an arena tail), ranks are inline up to three and in an arena
// beyond. Every lookup must return exactly the ranks inserted — across
// every length up to the word boundary and past it, keys differing only
// in their last byte, NUL bytes that zero padding must not conflate,
// rank lists of every storage kind, and every reset trigger. The stream
// subtest runs the same shapes through the encoder.
func TestPieceCacheKeys(t *testing.T) {
	t.Run("stream", testPieceCacheStream)
	type entry struct {
		piece []byte
		ranks []int32
	}
	var entries []entry
	add := func(piece []byte, nRanks int) {
		ranks := make([]int32, nRanks)
		for j := range ranks {
			ranks[j] = int32(len(entries)*100 + j)
		}
		entries = append(entries, entry{piece, ranks})
	}
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64} {
		for ri, nRanks := range []int{1, 2, 3, 4, 9} {
			// Same prefix, differing only in the last byte.
			p := bytes.Repeat([]byte{'k'}, n)
			p[n-1] = byte('a' + ri)
			add(p, min(nRanks, n))
		}
	}
	for _, p := range []string{
		"!\x00", "!\x00\x00", "\x00\x00", "\x00\x00\x00", "a\x00b", "a\x00c", "ab\x00",
		"0123456789abcde\x00", "0123456789abcde\x00\x00", "0123456789abcdef\x00",
		"0123456789abcdef\x00\x00", "0123456789abcdefgh\x00", "0123456789abcdefgh",
	} {
		add([]byte(p), 2)
	}

	c := newPieceCache()
	for i, e := range entries {
		k := makePieceKey(e.piece)
		if got := c.lookup(&k, e.piece); got != nil {
			t.Fatalf("entry %d %q: lookup before insert = %v", i, e.piece, got)
		}
		c.insert(&k, e.piece, e.ranks)
	}
	for i, e := range entries {
		k := makePieceKey(e.piece)
		if got := c.lookup(&k, e.piece); !slices.Equal(got, e.ranks) {
			t.Fatalf("entry %d %q: lookup = %v, want %v", i, e.piece, got, e.ranks)
		}
	}
	if c.evictions != 0 {
		t.Fatalf("%d evictions before any arena or the entry cap filled", c.evictions)
	}

	// Forced hash collisions: every entry in one probe chain, so only the
	// key words, the length and the tail tell them apart.
	c = newPieceCache()
	for _, e := range entries {
		k := makePieceKey(e.piece)
		k.h = 7
		c.insert(&k, e.piece, e.ranks)
	}
	for i, e := range entries {
		k := makePieceKey(e.piece)
		k.h = 7
		if got := c.lookup(&k, e.piece); !slices.Equal(got, e.ranks) {
			t.Fatalf("colliding entry %d %q: lookup = %v, want %v", i, e.piece, got, e.ranks)
		}
	}

	// fillUntilReset inserts distinct pieces from gen until an insert
	// resets the cache, then checks the reset: it came at insert want,
	// when the trigger first overflowed, and only the last piece is left,
	// with its ranks intact.
	fillUntilReset := func(name string, want int, gen func(i int) ([]byte, int)) {
		t.Helper()
		c := newPieceCache()
		for i := 0; ; i++ {
			piece, nRanks := gen(i)
			ranks := make([]int32, nRanks)
			for j := range ranks {
				ranks[j] = int32(i + j)
			}
			k := makePieceKey(piece)
			c.insert(&k, piece, ranks)
			if c.evictions == 0 {
				continue
			}
			if i != want || c.evictions != uint64(i) || c.entries != 1 {
				t.Fatalf("%s: reset at insert %d (want %d) evicted %d and kept %d entries",
					name, i, want, c.evictions, c.entries)
			}
			if got := c.lookup(&k, piece); !slices.Equal(got, ranks) {
				t.Fatalf("%s: after reset, lookup = %v, want %v", name, got, ranks)
			}
			first, _ := gen(0)
			k0 := makePieceKey(first)
			if got := c.lookup(&k0, first); got != nil {
				t.Fatalf("%s: evicted piece still found: %v", name, got)
			}
			return
		}
	}
	numbered := func(i, n int) []byte {
		p := bytes.Repeat([]byte{'z'}, n)
		for j := 0; j < 4; j++ {
			p[j] = byte('a' + (i>>(4*j))&15)
		}
		return p
	}
	fillUntilReset("tail arena", cacheTailArenaBytes/48, func(i int) ([]byte, int) { return numbered(i, 64), 1 })
	fillUntilReset("rank arena", cacheRankArenaLen/12, func(i int) ([]byte, int) { return numbered(i, 12), 12 })
	fillUntilReset("entry cap", cacheMaxEntries, func(i int) ([]byte, int) { return numbered(i, 8), 1 })
}

// testPieceCacheStream runs the cache key shapes through the streaming
// encoder twice over: pieces of every length from 2 to 17, 64 and 65
// (one past the cacheable maximum), NUL-bearing punctuation pieces, and
// words that encode to one through many ranks. The output must match
// the reference, and hits + misses must still reconcile to pieces.
func testPieceCacheStream(t *testing.T) {
	var in []byte
	for _, n := range []int{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 64, 65} {
		w := bytes.Repeat([]byte("the"), n)[:n]
		in = append(in, w...)
		in = append(in, '\n')
		w[n-1] = 'q'
		in = append(in, w...)
		in = append(in, '\n')
	}
	in = append(in, "!\x00\n!\x00\x00\n\x00\x00 a\x00b the people of the world\n"...)
	in = append(in, in...)

	tok, err := Compile(testTok.Vocab(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	checkAgainstReference(t, tok, in)
	pieces, _ := tok.Counters()
	hits, misses, _ := tok.CacheCounters()
	if hits+misses != pieces {
		t.Fatalf("hits %d + misses %d != pieces %d", hits, misses, pieces)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("hits %d, misses %d: want both", hits, misses)
	}
	ranksPerPiece := map[int]bool{}
	ScanPieces(in, func(start, end int) {
		ranksPerPiece[min(len(tok.Vocab().Encode(nil, in[start:end])), 4)] = true
	})
	for _, nr := range []int{1, 2, 3, 4} {
		if !ranksPerPiece[nr] {
			t.Errorf("no piece encodes to %d ranks (4 = four or more); have %v", nr, ranksPerPiece)
		}
	}
}

// TestPieceCacheFootprint pins the per-stream cache size (slot table
// plus both overflow arenas, allocated once per stream) to at most the
// 2,359,296 bytes (2.25 MiB) of the earlier entry-array layout: the
// wider slots are paid for by the smaller overflow arenas.
func TestPieceCacheFootprint(t *testing.T) {
	slot := int(unsafe.Sizeof(cacheSlot{}))
	if slot != 32 {
		t.Errorf("cacheSlot is %d bytes, want 32 (two per cache line)", slot)
	}
	if total := cacheSlots*slot + cacheTailArenaBytes + cacheRankArenaLen*4; total > 2359296 {
		t.Errorf("piece cache is %d bytes per stream, over the 2359296-byte budget", total)
	}
}
