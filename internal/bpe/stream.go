package bpe

import (
	"context"
	"fmt"
	"io"
	"sync"
	"sync/atomic"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

// The streaming exact BPE encoder. The pipeline is the BPE-DFA
// construction run through the StreamTok machinery:
//
//	input bytes ──pretok StreamTok engine──▶ pieces ──per piece──▶ ranks
//
// The pretokenizer grammar (PretokGrammar) runs as an ordinary
// bounded-memory StreamTok engine — it is tiny (15 states) and fuses.
// Each emitted piece is scanned greedily by the vocab DFA (maximal
// munch, longest token first), and the greedy segmentation is accepted
// iff it passes the local-validity check (every adjacent pair
// Compatible) — by the BPE-DFA theorem this certifies it IS the BPE
// encoding. When the check fails (greedy ≠ BPE, possible but rare on
// trained vocabularies) the piece falls back to the exact O(n log n)
// merge-loop encoder. Either way the emitted ranks are exactly the
// reference encoding: the fast path is verified, not trusted.
//
// Tokens are emitted with Token.Rule = rank and offsets into the
// stream; emission latency is the pretokenizer's (a piece is encoded
// the moment its maximality is confirmed, at most K_pretok bytes after
// it ends).

// Options configures Compile.
type Options struct {
	// MaxTeDFAStates caps the pretokenizer's token-extension DFA (0 =
	// default).
	MaxTeDFAStates int
	// MaxFusedTableBytes is the resident-table budget (0 = the 16 MB
	// default), shared by the vocab DFA table and the pretokenizer's
	// fused tables: the pretokenizer gets whatever the vocab table
	// leaves, and a vocabulary whose table alone fills the budget
	// serves with the pretokenizer on the lazy TeDFA loop. The vocab table
	// is charged at its serving representation — the sparse
	// row-displacement layout once adopted — which is what lets 32k+
	// merge vocabularies fit the default budget with room for fused
	// pretokenizer tables.
	MaxFusedTableBytes int
	// DisableSparse keeps the vocab DFA on the class-compressed table
	// even when its partition is degenerate (ablation and differential
	// tests of the sparse scan path).
	DisableSparse bool
	// DisablePieceCache turns off the piece-encoding memo cache, paying
	// the full DFA scan + validity check per piece occurrence (ablation
	// and differential tests of the uncached path).
	DisablePieceCache bool
}

// DefaultFusedBudget mirrors the fused engine's default table budget.
const DefaultFusedBudget = 16 << 20

// sparseRatioThreshold: the vocab DFA adopts the row-displacement
// sparse layout when its class table compresses to at least this
// fraction of the dense 256-ary layout. Byte-complete vocabularies sit
// at 1.000 (C = 256 structurally); real grammars sit at C/256 ≈
// 0.04–0.25 and keep the class table.
const sparseRatioThreshold = 0.9

// Tokenizer is a compiled streaming BPE tokenizer for one vocabulary.
// Immutable and safe for concurrent use; each stream needs its own
// Stream.
type Tokenizer struct {
	vocab *Vocab
	vm    *tokdfa.Machine // vocab maximal-munch DFA
	pm    *tokdfa.Machine // pretokenizer machine
	pres  analysis.Result // pretokenizer analysis
	ptok  *core.Tokenizer // pretokenizer engine

	noCache bool // Options.DisablePieceCache

	pieces    atomic.Uint64 // pieces encoded
	fallbacks atomic.Uint64 // pieces that took the merge-loop fallback

	cacheHits      atomic.Uint64 // piece-cache hits (byte pieces included)
	cacheMisses    atomic.Uint64 // piece-cache misses (uncacheable included)
	cacheEvictions atomic.Uint64 // entries discarded by wholesale resets

	pool    sync.Pool // recycles *Stream
	bufPool sync.Pool // recycles reader-driver buffers
}

// Compile builds the streaming BPE tokenizer: the vocab trie DFA
// through the class-native path, the pretokenizer StreamTok engine, and
// the budget split between them.
func Compile(v *Vocab, opts Options) (*Tokenizer, error) {
	vm, err := tokdfa.Compile(v.Rules(), tokdfa.Options{Minimize: true})
	if err != nil {
		return nil, fmt.Errorf("bpe: compiling vocab DFA: %w", err)
	}
	pm, err := tokdfa.Compile(PretokGrammar(), tokdfa.Options{Minimize: true})
	if err != nil {
		return nil, fmt.Errorf("bpe: compiling pretokenizer: %w", err)
	}
	pres := analysis.Analyze(pm)
	if !pres.Bounded() {
		return nil, fmt.Errorf("bpe: pretokenizer grammar unbounded (build bug)")
	}
	// Byte-complete vocabularies defeat byte-class compression (C = 256
	// structurally), so the vocab DFA switches to the row-displacement
	// sparse layout; the budget then charges the sparse arrays, leaving
	// headroom for the pretokenizer's fused tables.
	if !opts.DisableSparse {
		vm.SelectSparse(sparseRatioThreshold)
	}
	budget := opts.MaxFusedTableBytes
	if budget == 0 {
		budget = DefaultFusedBudget
	}
	remaining := budget - vm.TableBytes()
	limits := tepath.Limits{MaxDFAStates: opts.MaxTeDFAStates}
	var ptok *core.Tokenizer
	if remaining <= 0 {
		// Nothing left for pair tables. Passing the budget on is not an
		// option: the engine reads 0 as "the default".
		ptok, err = core.NewLazyWithK(pm, pres.MaxTND, limits)
	} else {
		ptok, err = core.NewWithKBudget(pm, pres.MaxTND, limits, remaining)
	}
	if err != nil {
		return nil, err
	}
	return &Tokenizer{vocab: v, vm: vm, pm: pm, pres: pres, ptok: ptok, noCache: opts.DisablePieceCache}, nil
}

// Vocab returns the vocabulary the tokenizer encodes with.
func (t *Tokenizer) Vocab() *Vocab { return t.vocab }

// VocabMachine returns the compiled vocab maximal-munch DFA.
func (t *Tokenizer) VocabMachine() *tokdfa.Machine { return t.vm }

// PretokMachine returns the compiled pretokenizer machine.
func (t *Tokenizer) PretokMachine() *tokdfa.Machine { return t.pm }

// PretokAnalysis returns the pretokenizer's static-analysis result.
func (t *Tokenizer) PretokAnalysis() analysis.Result { return t.pres }

// PretokEngine returns the pretokenizer's StreamTok engine (the
// component whose mode, ring, and accel bounds the certificate pins).
func (t *Tokenizer) PretokEngine() *core.Tokenizer { return t.ptok }

// EngineMode names the engine: "bpe+" plus the pretokenizer's mode.
func (t *Tokenizer) EngineMode() string { return "bpe+" + t.ptok.EngineMode() }

// K returns the pretokenizer's emission-delay bound: a BPE token is
// emitted at most K bytes plus one piece after its last byte.
func (t *Tokenizer) K() int { return t.ptok.K() }

// TableBytes is the resident footprint: the vocab DFA's serving table
// (sparse when adopted) plus the pretokenizer engine's tables.
func (t *Tokenizer) TableBytes() int { return t.vm.TableBytes() + t.ptok.TableBytes() }

// Counters reports how many pieces have been encoded and how many of
// them fell back to the merge loop (greedy segmentation failed the
// local-validity check). The fallback fraction is a quality measure of
// the greedy fast path on the traffic actually served.
func (t *Tokenizer) Counters() (pieces, fallbacks uint64) {
	return t.pieces.Load(), t.fallbacks.Load()
}

// CacheCounters reports the piece-encoding cache's aggregate activity:
// hits (single-byte pieces, served from the byte table, count as hits
// of the degenerate always-warm cache), misses (uncacheable oversize
// pieces included), and entries discarded by wholesale resets. Every
// piece is exactly one hit or one miss, so hits+misses always equals
// the pieces counter — the reconciliation stats tests pin.
func (t *Tokenizer) CacheCounters() (hits, misses, evictions uint64) {
	return t.cacheHits.Load(), t.cacheMisses.Load(), t.cacheEvictions.Load()
}

// Stream is a push-mode BPE encoder for one stream. Not safe for
// concurrent use.
type Stream struct {
	t  *Tokenizer
	ps *core.Streamer

	emit    core.EmitFunc // user sink for the current Feed/Close call
	pieceFn core.EmitFunc // cached closure over onPiece

	cache *pieceCache // per-stream piece-encoding memo (kept across pooling)

	seg []int32 // greedy scan / fallback: the piece's ranks
	enc []int   // fallback merge-loop scratch
	sc  encodeScratch

	batch     []token.Token  // batched emission buffer
	batchSink core.BatchFunc // non-nil only inside FeedBatch/CloseBatch

	pieces, fallbacks uint64 // folded into the tokenizer on release/close
}

// NewStream starts a fresh stream.
func (t *Tokenizer) NewStream() *Stream {
	s := &Stream{t: t, ps: t.ptok.NewStreamer(), cache: newPieceCache()}
	s.pieceFn = s.onPiece
	return s
}

// AcquireStream returns a pooled stream (pair with ReleaseStream; the
// warm serving loop allocates nothing per stream). Pooled streams keep
// their piece cache, so reacquired streams start warm.
func (t *Tokenizer) AcquireStream() *Stream {
	if v := t.pool.Get(); v != nil {
		s := v.(*Stream)
		s.ps = t.ptok.AcquireStreamer()
		return s
	}
	s := &Stream{t: t, ps: t.ptok.AcquireStreamer(), cache: newPieceCache()}
	s.pieceFn = s.onPiece
	return s
}

// ReleaseStream recycles s. s must not be used afterwards.
func (t *Tokenizer) ReleaseStream(s *Stream) {
	if s == nil || s.t != t || s.ps == nil {
		return
	}
	s.foldCounters()
	t.ptok.ReleaseStreamer(s.ps)
	s.ps = nil
	t.pool.Put(s)
}

func (s *Stream) foldCounters() {
	if s.pieces != 0 {
		s.t.pieces.Add(s.pieces)
		s.pieces = 0
	}
	if s.fallbacks != 0 {
		s.t.fallbacks.Add(s.fallbacks)
		s.fallbacks = 0
	}
	if c := s.cache; c != nil {
		if c.hits != 0 {
			s.t.cacheHits.Add(c.hits)
			c.hits = 0
		}
		if c.misses != 0 {
			s.t.cacheMisses.Add(c.misses)
			c.misses = 0
		}
		if c.evictions != 0 {
			s.t.cacheEvictions.Add(c.evictions)
			c.evictions = 0
		}
	}
}

// Counters reports the stream's not-yet-folded activity: pieces encoded,
// merge-loop fallbacks, and cache hits/misses/evictions since the last
// fold (Close, CloseBatch, Reset, or release zero these into the
// tokenizer's aggregates).
func (s *Stream) Counters() (pieces, fallbacks, hits, misses, evictions uint64) {
	return s.pieces, s.fallbacks, s.cache.hits, s.cache.misses, s.cache.evictions
}

func discardEmit(token.Token, []byte) {}

// Feed pushes a chunk through the encoder, emitting the BPE tokens of
// every piece the chunk confirms. Token.Rule is the rank; text is the
// token's bytes, valid only until the next call. A nil emit discards.
func (s *Stream) Feed(chunk []byte, emit core.EmitFunc) {
	if emit == nil {
		emit = discardEmit
	}
	s.emit = emit
	s.ps.Feed(chunk, s.pieceFn)
	s.emit = nil
}

// Close drains the pretokenizer, encodes the final pieces, and returns
// the offset of the first unconsumed byte (the stream length: the
// pretokenizer is total, every byte belongs to some piece). A nil emit
// discards.
func (s *Stream) Close(emit core.EmitFunc) int {
	if emit == nil {
		emit = discardEmit
	}
	s.emit = emit
	rest := s.ps.Close(s.pieceFn)
	s.emit = nil
	s.foldCounters()
	return rest
}

// FeedBatch is Feed with batched emission: ranks are appended straight
// to the stream's batch buffer as offset-only tokens and flushed to
// sink at buffer pressure and at the chunk boundary. A nil sink
// discards, as Feed(chunk, nil) does.
func (s *Stream) FeedBatch(chunk []byte, sink core.BatchFunc) {
	if sink == nil {
		s.Feed(chunk, nil)
		return
	}
	s.startBatch(sink)
	s.ps.Feed(chunk, s.pieceFn)
	s.flushBatch()
	s.batchSink = nil
}

// CloseBatch is Close with batched emission of the final pieces. A nil
// sink discards, as Close(nil) does.
func (s *Stream) CloseBatch(sink core.BatchFunc) int {
	if sink == nil {
		return s.Close(nil)
	}
	s.startBatch(sink)
	rest := s.ps.Close(s.pieceFn)
	s.flushBatch()
	s.batchSink = nil
	s.foldCounters()
	return rest
}

// batchCap is the batch buffer's capacity and flush threshold.
const batchCap = 512

func (s *Stream) startBatch(sink core.BatchFunc) {
	if cap(s.batch) == 0 {
		s.batch = make([]token.Token, 0, batchCap)
	}
	s.batchSink = sink
}

func (s *Stream) flushBatch() {
	if len(s.batch) > 0 {
		s.batchSink(s.batch)
		s.batch = s.batch[:0]
	}
}

// Reset abandons the current stream and readies s for a fresh one.
func (s *Stream) Reset() {
	s.foldCounters()
	s.ps.Reset()
}

// PretokStreamer returns the underlying pretokenizer streamer — the
// component that owns the stream's observability counters (bytes,
// chunks, pieces-as-tokens, carry/ring high water).
func (s *Stream) PretokStreamer() *core.Streamer { return s.ps }

// Rest returns the offset of the first unconsumed byte after Close.
func (s *Stream) Rest() int { return s.ps.Rest() }

// onPiece receives one pretokenizer piece and emits its BPE encoding.
// The cache front-ends everything: a hit replays the certified ranks
// without touching the DFA, the validity caches, or the merge loop.
func (s *Stream) onPiece(ptok token.Token, text []byte) {
	s.pieces++
	c := s.cache
	if len(text) == 1 {
		// A single byte is always its byte token: the byte table is the
		// degenerate always-warm cache, so this counts as a hit (keeping
		// hits+misses == pieces exact).
		c.hits++
		b := int(text[0])
		s.emitRanks(ptok, text, s.t.vocab.byteRank[b:b+1])
		return
	}
	if len(text) > maxCachedPieceLen || s.t.noCache {
		c.misses++
		s.emitRanks(ptok, text, s.encodeUncached(text))
		return
	}
	k := makePieceKey(text)
	if ranks := c.lookup(&k, text); ranks != nil {
		c.hits++
		s.emitRanks(ptok, text, ranks)
		return
	}
	c.misses++
	ranks := s.encodeUncached(text)
	c.insert(&k, text, ranks)
	s.emitRanks(ptok, text, ranks)
}

// emitRanks emits one token per rank. A certified encoding tiles the
// piece exactly, so offsets follow from the token lengths and the last
// token ends where the piece does (most pieces are one token: no length
// lookup at all). Inside FeedBatch/CloseBatch the tokens go straight
// into the batch buffer, flushed to the sink whenever it fills so one
// token-dense Feed still runs in bounded memory.
func (s *Stream) emitRanks(ptok token.Token, text []byte, ranks []int32) {
	toks := s.t.vocab.tokens
	start := ptok.Start
	for i, r := range ranks {
		end := ptok.End
		if i+1 < len(ranks) {
			end = start + len(toks[r])
		}
		tok := token.Token{Start: start, End: end, Rule: int(r)}
		if s.batchSink != nil {
			s.batch = append(s.batch, tok)
			if len(s.batch) >= batchCap {
				s.flushBatch()
			}
		} else {
			s.emit(tok, text[start-ptok.Start:end-ptok.Start])
		}
		start = end
	}
}

// encodeUncached computes the certified BPE encoding of a multi-byte
// piece: greedy maximal-munch scan on the vocab DFA, accepted iff it
// passes the local-validity check, else the exact merge loop. The
// returned slice is s.seg scratch — valid until the next piece.
func (s *Stream) encodeUncached(text []byte) []int32 {
	v, m := s.t.vocab, s.t.vm
	seg := s.seg[:0]
	if sp := m.Sparse; sp != nil {
		// Row-displacement sparse scan (the class table was dropped).
		for i := 0; i < len(text); {
			q := sp.Start
			lastEnd, lastRank := -1, -1
			for j := i; j < len(text); j++ {
				q = sp.Step(q, text[j])
				if m.IsDead(q) {
					break
				}
				if sp.IsFinal(q) {
					lastEnd, lastRank = j+1, sp.Rule(q)
				}
			}
			// lastEnd >= i+1 always: every single byte is a token.
			seg = append(seg, int32(lastRank))
			i = lastEnd
		}
	} else {
		d := m.DFA
		for i := 0; i < len(text); {
			q := d.Start
			lastEnd, lastRank := -1, -1
			for j := i; j < len(text); j++ {
				q = d.Step(q, text[j])
				if m.IsDead(q) {
					break
				}
				if d.IsFinal(q) {
					lastEnd, lastRank = j+1, d.Rule(q)
				}
			}
			seg = append(seg, int32(lastRank))
			i = lastEnd
		}
	}
	s.seg = seg

	// Local-validity check: accept the greedy segmentation iff it is
	// certifiably the BPE encoding.
	valid := true
	if len(seg) == 1 {
		valid = v.SelfEncodes(int(seg[0]))
	} else {
		for i := 0; i+1 < len(seg); i++ {
			if !v.Compatible(int(seg[i]), int(seg[i+1])) {
				valid = false
				break
			}
		}
	}
	if valid {
		return seg
	}

	// Greedy is not the BPE encoding of this piece: exact merge loop.
	s.fallbacks++
	s.enc = v.encodePiece(s.enc[:0], text, &s.sc)
	seg = seg[:0]
	for _, r := range s.enc {
		seg = append(seg, int32(r))
	}
	s.seg = seg
	return seg
}

// Tokenize reads the stream block-by-block (bufSize 0 = 64 KB) and
// emits every BPE token; it returns the offset of the first unconsumed
// byte and any read error.
func (t *Tokenizer) Tokenize(r io.Reader, bufSize int, emit core.EmitFunc) (rest int, err error) {
	return t.TokenizeContextChunks(context.Background(), r, bufSize, emit, nil)
}

// TokenizeContext is Tokenize with cancellation, checked at chunk
// boundaries.
func (t *Tokenizer) TokenizeContext(ctx context.Context, r io.Reader, bufSize int, emit core.EmitFunc) (rest int, err error) {
	return t.TokenizeContextChunks(ctx, r, bufSize, emit, nil)
}

// TokenizeContextChunks mirrors core.Tokenizer.TokenizeContextChunks:
// the boundary hook runs after every fed block, and both cancellation
// and boundary errors cut at chunk boundaries only.
func (t *Tokenizer) TokenizeContextChunks(ctx context.Context, r io.Reader, bufSize int, emit core.EmitFunc, boundary core.BoundaryFunc) (rest int, err error) {
	if bufSize <= 0 {
		bufSize = core.DefaultBufferSize
	}
	s := t.AcquireStream()
	defer t.ReleaseStream(s)
	bp := t.acquireBuf(bufSize)
	defer t.bufPool.Put(bp)
	buf := *bp
	consumed := 0
	for {
		if cerr := ctx.Err(); cerr != nil {
			s.Close(nil)
			return s.Rest(), cerr
		}
		n, rerr := r.Read(buf)
		if n > 0 {
			consumed += n
			s.Feed(buf[:n], emit)
			if boundary != nil {
				if berr := boundary(consumed); berr != nil {
					s.Close(nil)
					return s.Rest(), berr
				}
			}
		}
		if rerr == io.EOF {
			return s.Close(emit), nil
		}
		if rerr != nil {
			s.Close(nil)
			return s.Rest(), rerr
		}
	}
}

func (t *Tokenizer) acquireBuf(n int) *[]byte {
	if v := t.bufPool.Get(); v != nil {
		bp := v.(*[]byte)
		if cap(*bp) >= n {
			*bp = (*bp)[:n]
			return bp
		}
	}
	b := make([]byte, n)
	return &b
}

// TokenizeBytes encodes an in-memory input in one Feed and returns the
// tokens and the offset of the first unconsumed byte.
func (t *Tokenizer) TokenizeBytes(input []byte) (toks []token.Token, rest int) {
	s := t.AcquireStream()
	collect := func(batch []token.Token) { toks = append(toks, batch...) }
	s.FeedBatch(input, collect)
	rest = s.CloseBatch(collect)
	t.ReleaseStream(s)
	return toks, rest
}
