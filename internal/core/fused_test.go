package core_test

import (
	"bytes"
	"math/rand"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/bpe"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// engineSet builds the engine variants for one machine: the default
// (fused unless a K ≥ 2 grammar is over budget), the fused engine with
// accel states disabled, and for K ≥ 2 the lazy TeDFA loop.
func engineSet(t *testing.T, m *tokdfa.Machine, k int) map[string]*core.Tokenizer {
	t.Helper()
	out := map[string]*core.Tokenizer{}
	var err error
	if out["auto"], err = core.NewWithK(m, k, tepath.Limits{}); err != nil {
		t.Fatalf("NewWithK: %v", err)
	}
	if out["noaccel"], err = core.NewNoAccelWithK(m, k, tepath.Limits{}); err != nil {
		t.Fatalf("NewNoAccelWithK: %v", err)
	}
	if k >= 2 {
		if out["lazy"], err = core.NewLazyWithK(m, k, tepath.Limits{}); err != nil {
			t.Fatalf("NewLazyWithK: %v", err)
		}
	}
	return out
}

// checkEnginesAgree requires every engine variant to produce the
// reference token stream — Start/End/Rule and text bytes — and rest
// offset, across all chunk sizes including 1-byte feeds.
func checkEnginesAgree(t *testing.T, name string, m *tokdfa.Machine, engines map[string]*core.Tokenizer, input []byte) {
	t.Helper()
	want, wantRest := reference.Tokens(m, input)
	for mode, tok := range engines {
		for _, chunk := range testutil.ChunkSizes {
			got, texts, rest := collectStream(tok, input, chunk)
			if !reference.Equal(got, want) || rest != wantRest {
				t.Fatalf("%s [%s, chunk %d] on %d bytes:\n got  %v rest %d\n want %v rest %d",
					name, mode, chunk, len(input), got, rest, want, wantRest)
			}
			for i, tk := range got {
				if !bytes.Equal(texts[i], input[tk.Start:tk.End]) {
					t.Fatalf("%s [%s, chunk %d]: token %d text %q != input[%d:%d] %q",
						name, mode, chunk, i, texts[i], tk.Start, tk.End, input[tk.Start:tk.End])
				}
			}
		}
	}
}

// runHeavyInputs builds inputs dominated by self-loop runs (the accel
// states' target shape): single-byte runs over the alphabet, and block
// runs glued together, at lengths that straddle chunk boundaries.
func runHeavyInputs(alphabet []byte) [][]byte {
	var out [][]byte
	for _, b := range alphabet {
		out = append(out, bytes.Repeat([]byte{b}, 300))
	}
	var mixed []byte
	for _, b := range alphabet {
		mixed = append(mixed, bytes.Repeat([]byte{b}, 97)...)
	}
	out = append(out, mixed)
	return out
}

// TestFusedMatchesSplitCatalog is the engine oracle matrix: on every
// bounded catalog grammar, the fused engine (with and without accel)
// and, for K ≥ 2, the interpreted split-general-lazy loop must match
// the Definition 1 reference byte-for-byte, on realistic workloads and
// run-heavy synthetics.
func TestFusedMatchesSplitCatalog(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, spec := range grammars.All() {
		m := spec.Machine()
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		engines := engineSet(t, m, res.MaxTND)
		t.Logf("%s: k=%d mode=%s accelStates=%d", spec.Name, res.MaxTND,
			engines["auto"].EngineMode(), engines["auto"].AccelStates())

		var inputs [][]byte
		if w, err := workload.Generate(spec.Name, 11, 16<<10); err == nil {
			inputs = append(inputs, w)
		}
		alphabet := []byte("abc019 \t\n,:\"{}<>/=.-_")
		inputs = append(inputs, runHeavyInputs(alphabet)...)
		for trial := 0; trial < 20; trial++ {
			inputs = append(inputs, testutil.RandomInput(rng, alphabet, rng.Intn(200)))
		}
		for _, in := range inputs {
			checkEnginesAgree(t, spec.Name, m, engines, in)
		}
	}
}

// TestFusedMatchesSplitCorpus covers the trickier testutil corpus
// (k=0 grammars, keyword ladders, ε-ish rules, byte extremes) the
// catalog formats do not reach.
func TestFusedMatchesSplitCorpus(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		engines := engineSet(t, m, res.MaxTND)
		var inputs [][]byte
		inputs = append(inputs, runHeavyInputs(c.Alphabet)...)
		for trial := 0; trial < 30; trial++ {
			inputs = append(inputs, testutil.RandomInput(rng, c.Alphabet, rng.Intn(160)))
		}
		for _, in := range inputs {
			checkEnginesAgree(t, c.Name, m, engines, in)
		}
	}
}

// TestFusedEngineSelected pins the mode auto-selection: the data
// formats must actually get the fused engine, and the run-heavy formats
// must end up with accel states.
func TestFusedEngineSelected(t *testing.T) {
	for _, spec := range grammars.DataFormats() {
		m := spec.Machine()
		res := analysis.Analyze(m)
		if !res.Bounded() {
			t.Fatalf("%s: expected bounded", spec.Name)
		}
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !tok.Fused() {
			t.Errorf("%s: fused engine not selected (mode %s)", spec.Name, tok.EngineMode())
		}
		if tok.AccelStates() == 0 {
			t.Errorf("%s: no accel states detected", spec.Name)
		}
		noacc, err := core.NewNoAccelWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if !noacc.Fused() || noacc.AccelStates() != 0 {
			t.Errorf("%s: NoAccel variant wrong (fused=%v accel=%d)",
				spec.Name, noacc.Fused(), noacc.AccelStates())
		}
	}
}

// TestFusedLazyFallback: when the TeDFA goes lazy the fused engine must
// bow out (it needs the eager powerstate space), and tokenization must
// still match the reference.
func TestFusedLazyFallback(t *testing.T) {
	c := testutil.GrammarCase{Rules: []string{`a{0,12}b`, `a`}, Alphabet: []byte("ab")}
	m := c.Compile(false)
	tok, err := core.NewWithK(m, 12, tepath.Limits{MaxDFAStates: 8})
	if err != nil {
		t.Fatal(err)
	}
	if tok.Fused() {
		t.Fatalf("fused engine selected over a lazy TeDFA (mode %s)", tok.EngineMode())
	}
	if tok.EngineMode() != "split-general-lazy" {
		t.Fatalf("mode = %s, want split-general-lazy", tok.EngineMode())
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		in := testutil.RandomInput(rng, c.Alphabet, rng.Intn(200))
		want, wantRest := reference.Tokens(m, in)
		got, _, rest := collectStream(tok, in, 7)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("lazy fallback diverged on %q", in)
		}
	}
}

// TestFusedGeneralRingEdges pins the fused general loop's ring
// handling: A reads the ring only for a chunk's first k bytes and the
// chunk itself afterwards, and every exit refills the ring. Every k ≥ 2
// fused-general catalog grammar and the BPE pretokenizer run at each
// chunk size from 1 to k+2 (chunks shorter than, equal to and just past
// the ring), 7 and 4096, with a checkpoint taken after every Feed and
// the stream resumed from it on a fresh streamer — so a wrong ring at a
// normal exit, after an accel skip, or at a dead stop shows up as a
// wrong token, text or Rest.
func TestFusedGeneralRingEdges(t *testing.T) {
	type target struct {
		name   string
		m      *tokdfa.Machine
		inputs [][]byte
	}
	rng := rand.New(rand.NewSource(29))
	var targets []target
	for _, spec := range grammars.All() {
		tg := target{name: spec.Name, m: spec.Machine()}
		if in, err := workload.Generate(spec.Name, 5, 8<<10); err == nil {
			tg.inputs = append(tg.inputs, in)
		}
		targets = append(targets, tg)
	}
	pm, err := tokdfa.Compile(bpe.PretokGrammar(), tokdfa.Options{Minimize: true})
	if err != nil {
		t.Fatal(err)
	}
	targets = append(targets, target{"bpe-pretok", pm, [][]byte{workload.Prompts(5, 8<<10)}})

	tested := 0
	for _, tg := range targets {
		res := analysis.Analyze(tg.m)
		if !res.Bounded() || res.MaxTND < 2 {
			continue
		}
		tok, err := core.NewWithK(tg.m, res.MaxTND, tepath.Limits{})
		if err != nil {
			t.Fatal(err)
		}
		if tok.EngineMode() != "fused-general" {
			continue
		}
		tested++
		k := res.MaxTND
		t.Logf("%s: k=%d accel states %d", tg.name, k, tok.AccelStates())
		inputs := tg.inputs
		inputs = append(inputs, runHeavyInputs([]byte("a0 \t\n\"<>/=.-x"))...)
		// Dead stops: a run-heavy prefix, then a byte the grammar may
		// reject, at offsets on both sides of a chunk's first k bytes.
		for _, cut := range []int{1, k, k + 1, 97} {
			for _, bad := range []byte{0x00, 0xff, '\\', '"'} {
				in := append(bytes.Repeat([]byte("a"), cut), bad)
				inputs = append(inputs, append(in, "aaaa bbbb"...))
			}
		}
		for trial := 0; trial < 10; trial++ {
			inputs = append(inputs, testutil.RandomInput(rng, []byte("ab0 \"\\{}<>\n"), rng.Intn(120)))
		}
		var sizes []int
		for c := 1; c <= k+2; c++ {
			sizes = append(sizes, c)
		}
		sizes = append(sizes, 7, 4096)
		for _, in := range inputs {
			want, wantRest := reference.Tokens(tg.m, in)
			for _, chunk := range sizes {
				got, texts, rest := resumeEveryChunk(t, tok, in, chunk, false)
				if !reference.Equal(got, want) || rest != wantRest {
					t.Fatalf("%s (k=%d, chunk %d) on %q:\n got  %v rest %d\n want %v rest %d",
						tg.name, k, chunk, clipInput(in), got, rest, want, wantRest)
				}
				for i, tk := range got {
					if !bytes.Equal(texts[i], in[tk.Start:tk.End]) {
						t.Fatalf("%s (k=%d, chunk %d): token %d text %q != input[%d:%d]",
							tg.name, k, chunk, i, texts[i], tk.Start, tk.End)
					}
				}
			}
		}
	}
	if tested < 3 {
		t.Fatalf("only %d k ≥ 2 fused-general targets; want json, xml and the pretokenizer at least", tested)
	}
}

// resumeEveryChunk streams input in fixed chunks, suspending after
// every Feed and resuming the checkpoint on a fresh streamer. With
// batch set it drives FeedBatch/CloseBatch and reads the token texts
// out of input.
func resumeEveryChunk(t *testing.T, tok *core.Tokenizer, input []byte, chunk int, batch bool) ([]token.Token, [][]byte, int) {
	t.Helper()
	var toks []token.Token
	var texts [][]byte
	emit := func(tk token.Token, text []byte) {
		toks = append(toks, tk)
		texts = append(texts, append([]byte(nil), text...))
	}
	sink := func(b []token.Token) {
		for _, tk := range b {
			emit(tk, input[tk.Start:tk.End])
		}
	}
	s := tok.NewStreamer()
	for i := 0; i < len(input); i += chunk {
		part := input[i:min(i+chunk, len(input))]
		if batch {
			s.FeedBatch(part, sink)
		} else {
			s.Feed(part, emit)
		}
		if s.Stopped() {
			break
		}
		cs, err := s.CheckpointState()
		if err != nil {
			t.Fatal(err)
		}
		cs.CheckQA = true
		r := tok.NewStreamer()
		if err := r.Restore(cs); err != nil {
			t.Fatalf("restore after %d bytes: %v", min(i+chunk, len(input)), err)
		}
		s.Discard()
		s = r
	}
	if batch {
		return toks, texts, s.CloseBatch(sink)
	}
	return toks, texts, s.Close(emit)
}

func clipInput(b []byte) []byte {
	if len(b) > 80 {
		return b[:80]
	}
	return b
}
