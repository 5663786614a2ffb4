package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/reference"
	"streamtok/internal/tepath"
	"streamtok/internal/testutil"
	"streamtok/internal/tokdfa"
)

// keywordRules returns n fixed-width keywords kw000, kw001, …: a k = 0
// grammar with more rules than a packed action byte could name.
func keywordRules(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("kw%03d", i)
	}
	return out
}

// TestEngineEdgeShapes pins engine selection at the edges of the fused
// engine, each reachable from a client ?rule= grammar: a nullable k=1
// rule (Start is final), more rules than a packed action byte holds,
// and a fused byte budget too small for any table — which leaves k ≤ 1
// fused and sends k ≥ 2 to the lazy loop. Each must select the named
// mode and equal the Definition 1 reference at every chunk size from 1
// to k+2 and 4096, suspended and resumed after every Feed, through both
// Feed and FeedBatch.
func TestEngineEdgeShapes(t *testing.T) {
	kwInput := func(rng *rand.Rand) []byte {
		var b []byte
		for len(b) < 200 {
			b = fmt.Appendf(b, "kw%03d", rng.Intn(300))
		}
		if rng.Intn(2) == 0 {
			b = append(b[:rng.Intn(len(b))], "kw9x"...) // dies mid-token
		}
		return b
	}
	cases := []struct {
		name     string
		rules    []string
		budget   int // fused table budget, 0 = default
		k        int
		mode     string
		alphabet []byte
		fixed    []string
	}{
		{"nullable-k1", []string{`[a-z]*`, ` `}, 0, 1, "fused-k1", []byte("ab z#"),
			[]string{"", " ", "a", "#", " #", "ab  cd", "abc#", "  a b  "}},
		{"keywords-300", keywordRules(300), 0, 0, "fused-k0", nil,
			[]string{"kw000kw299kw150", "kw29", "kw300", "kw007kw"}},
		{"k1-tiny-budget", []string{`[a-z]+`, `[0-9]+`, ` `}, 1, 1, "fused-k1", []byte("az09 #"),
			[]string{"abc 123 x9", "aaaa#"}},
		{"k2-tiny-budget", []string{`[0-9]+(\.[0-9]+)?`, `\.`, ` `}, 1, 2, "split-general-lazy", []byte("09. x"),
			[]string{"3.14 . 15.", "1..2 3.x", "12."}},
	}
	rng := rand.New(rand.NewSource(41))
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := tokdfa.MustCompile(tokdfa.MustParseGrammar(c.rules...), tokdfa.Options{Minimize: true})
			res := analysis.Analyze(m)
			if !res.Bounded() || res.MaxTND != c.k {
				t.Fatalf("k regime: bounded=%v k=%d, want k=%d", res.Bounded(), res.MaxTND, c.k)
			}
			tok, err := core.NewWithKBudget(m, c.k, tepath.Limits{}, c.budget)
			if err != nil {
				t.Fatal(err)
			}
			if got := tok.EngineMode(); got != c.mode {
				t.Fatalf("engine mode %s, want %s", got, c.mode)
			}
			inputs := make([][]byte, 0, len(c.fixed)+20)
			for _, in := range c.fixed {
				inputs = append(inputs, []byte(in))
			}
			for trial := 0; trial < 20; trial++ {
				if c.alphabet == nil {
					inputs = append(inputs, kwInput(rng))
				} else {
					inputs = append(inputs, testutil.RandomInput(rng, c.alphabet, rng.Intn(120)))
				}
			}
			sizes := []int{4096}
			for n := 1; n <= c.k+2; n++ {
				sizes = append(sizes, n)
			}
			for _, in := range inputs {
				want, wantRest := reference.Tokens(m, in)
				for _, chunk := range sizes {
					for _, batch := range []bool{false, true} {
						got, texts, rest := resumeEveryChunk(t, tok, in, chunk, batch)
						if !reference.Equal(got, want) || rest != wantRest {
							t.Fatalf("chunk %d batch=%v on %q:\n got  %v rest %d\n want %v rest %d",
								chunk, batch, clipInput(in), got, rest, want, wantRest)
						}
						for i, tk := range got {
							if !bytes.Equal(texts[i], in[tk.Start:tk.End]) {
								t.Fatalf("chunk %d batch=%v: token %d text %q != input[%d:%d]",
									chunk, batch, i, texts[i], tk.Start, tk.End)
							}
						}
					}
				}
			}
		})
	}
}
