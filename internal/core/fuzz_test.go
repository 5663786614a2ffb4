package core_test

import (
	"reflect"
	"sync"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/obs"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
	"streamtok/internal/token"
)

var (
	fuzzOnce  sync.Once
	fuzzToks  []*core.Tokenizer
	fuzzMachs []*tokdfa.Machine
)

func fuzzSetup() {
	for _, c := range testutil.Corpus() {
		m := c.Compile(false)
		res := analysis.Analyze(m)
		if !res.Bounded() {
			continue
		}
		tok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			continue
		}
		fuzzToks = append(fuzzToks, tok)
		fuzzMachs = append(fuzzMachs, m)
	}
}

// FuzzStreamTokDifferential fuzzes arbitrary inputs against the
// executable specification, across the bounded corpus grammars and a
// fuzzer-chosen chunking.
func FuzzStreamTokDifferential(f *testing.F) {
	f.Add(0, uint8(1), []byte("123 456"))
	f.Add(1, uint8(3), []byte("3.14 . 5"))
	f.Add(2, uint8(7), []byte("12e+3 x"))
	f.Add(3, uint8(64), []byte(`a,"b""c",d`))
	f.Fuzz(func(t *testing.T, pick int, chunk uint8, input []byte) {
		fuzzOnce.Do(fuzzSetup)
		if len(fuzzToks) == 0 {
			t.Skip("no bounded grammars")
		}
		if pick < 0 {
			pick = -pick
		}
		tok := fuzzToks[pick%len(fuzzToks)]
		m := fuzzMachs[pick%len(fuzzMachs)]
		step := int(chunk)
		if step == 0 {
			step = 1
		}
		want, wantRest := reference.Tokens(m, input)
		var got []token.Token
		s := tok.NewStreamer()
		collect := func(tk token.Token, _ []byte) { got = append(got, tk) }
		for i := 0; i < len(input); i += step {
			end := i + step
			if end > len(input) {
				end = len(input)
			}
			s.Feed(input[i:end], collect)
		}
		rest := s.Close(collect)
		if !reference.Equal(got, want) || rest != wantRest {
			t.Fatalf("grammar %d chunk %d on %q: got %v rest %d, want %v rest %d",
				pick%len(fuzzToks), step, input, got, rest, want, wantRest)
		}
	})
}

var (
	fuzzFusedOnce  sync.Once
	fuzzFusedToks  []*core.Tokenizer // the corpus set, then the edge shapes
	fuzzFusedMachs []*tokdfa.Machine
	fuzzLazyToks   []*core.Tokenizer // the lazy loop per grammar for K ≥ 2, else nil
)

// fuzzFusedSetup extends the corpus set with the edge shapes of the
// small fused engine (a nullable k=1 rule, and a k=0 grammar with more
// rules than a packed action byte holds). Appending keeps the corpus
// grammars' indices, which the committed seeds name.
func fuzzFusedSetup() {
	fuzzOnce.Do(fuzzSetup)
	fuzzFusedToks = append(fuzzFusedToks, fuzzToks...)
	fuzzFusedMachs = append(fuzzFusedMachs, fuzzMachs...)
	for _, rules := range [][]string{{`[a-z]*`, ` `}, keywordRules(300)} {
		m := tokdfa.MustCompile(tokdfa.MustParseGrammar(rules...), tokdfa.Options{Minimize: true})
		tok, err := core.NewWithK(m, analysis.Analyze(m).MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		fuzzFusedToks = append(fuzzFusedToks, tok)
		fuzzFusedMachs = append(fuzzFusedMachs, m)
	}
	for _, tok := range fuzzFusedToks {
		var lazy *core.Tokenizer
		if tok.K() >= 2 {
			var err error
			if lazy, err = core.NewLazyWithK(tok.Machine(), tok.K(), tepath.Limits{}); err != nil {
				panic(err)
			}
		}
		fuzzLazyToks = append(fuzzLazyToks, lazy)
	}
}

// FuzzFusedDifferential cross-checks the default engine against the
// reference oracle, and for K ≥ 2 the lazy TeDFA loop against it too,
// under fuzzer-chosen alternating chunk boundaries (including 1-byte
// feeds), comparing tokens, emitted text bytes, and Rest. Each engine
// also runs FeedBatch/CloseBatch on the same chunking, which must give
// the oracle's tokens and Rest and, before Close, the same
// StreamCounters as the Feed run (the batched loops count tokens
// inline, and chunk-spanning tokens still record their carry peak).
func FuzzFusedDifferential(f *testing.F) {
	f.Add(0, uint8(1), uint8(1), []byte("123 456"))
	f.Add(3, uint8(1), uint8(5), []byte(`a,"b""c",d`))
	f.Add(5, uint8(64), uint8(2), []byte("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa b"))
	f.Add(7, uint8(3), uint8(17), []byte("/*ab*/ xxxxxxxxxxxxxxxxxxxxxxxx\n"))
	// Chunks shorter than k on the k ≥ 2 fused-general grammars (k = 2,
	// 3, 4, 2): the ring is read, not the chunk, for every A byte.
	f.Add(2, uint8(1), uint8(1), []byte("12.34 . 5.6.7 8888888.9"))
	f.Add(3, uint8(2), uint8(1), []byte("12e+3 45E-67     1e 2e+ 999999999e9"))
	f.Add(4, uint8(3), uint8(2), []byte("aaaab aaaaab aab ab aaaa b"))
	f.Add(14, uint8(1), uint8(3), []byte("ababc ab abababc abababab c"))
	f.Fuzz(func(t *testing.T, pick int, c1, c2 uint8, input []byte) {
		fuzzFusedOnce.Do(fuzzFusedSetup)
		if pick < 0 {
			pick = -pick
		}
		pick %= len(fuzzFusedToks)
		type result struct {
			toks        []token.Token
			texts       [][]byte
			rest        int
			beforeClose obs.Counters // StreamCounters before Close
		}
		run := func(tok *core.Tokenizer, batched bool) result {
			var r result
			s := tok.NewStreamer()
			collect := func(tk token.Token, text []byte) {
				r.toks = append(r.toks, tk)
				r.texts = append(r.texts, append([]byte(nil), text...))
			}
			sink := func(batch []token.Token) { r.toks = append(r.toks, batch...) }
			steps := [2]int{int(c1), int(c2)}
			for i, which := 0, 0; i < len(input); which ^= 1 {
				step := steps[which]
				if step == 0 {
					step = 1
				}
				end := i + step
				if end > len(input) {
					end = len(input)
				}
				if batched {
					s.FeedBatch(input[i:end], sink)
				} else {
					s.Feed(input[i:end], collect)
				}
				i = end
			}
			r.beforeClose = s.StreamCounters()
			if batched {
				r.rest = s.CloseBatch(sink)
			} else {
				r.rest = s.Close(collect)
			}
			return r
		}
		want, wantRest := reference.Tokens(fuzzFusedMachs[pick], input)
		for _, tok := range []*core.Tokenizer{fuzzFusedToks[pick], fuzzLazyToks[pick]} {
			if tok == nil {
				continue
			}
			fed, batched := run(tok, false), run(tok, true)
			for _, r := range []struct {
				path string
				result
			}{{"Feed", fed}, {"FeedBatch", batched}} {
				if !reference.Equal(r.toks, want) || r.rest != wantRest {
					t.Fatalf("%s %s diverged from oracle on %q (grammar %d): got %v rest %d, want %v rest %d",
						tok.EngineMode(), r.path, input, pick, r.toks, r.rest, want, wantRest)
				}
			}
			for i := range fed.texts {
				if string(fed.texts[i]) != string(input[fed.toks[i].Start:fed.toks[i].End]) {
					t.Fatalf("%s: token %d text %q != input[%d:%d]", tok.EngineMode(), i, fed.texts[i], fed.toks[i].Start, fed.toks[i].End)
				}
			}
			if !reflect.DeepEqual(batched.beforeClose, fed.beforeClose) {
				t.Fatalf("%s on %q (grammar %d): FeedBatch counters before Close %+v, Feed %+v",
					tok.EngineMode(), input, pick, batched.beforeClose, fed.beforeClose)
			}
		}
	})
}
