package bpe

import (
	"bytes"
	"slices"
	"testing"

	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// testTokenizer compiles a small trained vocabulary once for the
// streaming differential tests.
var testTok = func() *Tokenizer {
	corpus := workload.Prompts(7, 1<<19)
	v, err := Train(corpus, 1500, TrainOptions{})
	if err != nil {
		panic(err)
	}
	t, err := Compile(v, Options{})
	if err != nil {
		panic(err)
	}
	return t
}()

// chunkings mirrors the catalog differential tests: every way a stream
// arrives — one shot, byte by byte, small fixed blocks, ragged blocks
// that split UTF-8 sequences and piece boundaries.
func chunkings(input []byte) [][][]byte {
	var out [][][]byte
	out = append(out, [][]byte{input})
	var byByte [][]byte
	for i := range input {
		byByte = append(byByte, input[i:i+1])
	}
	out = append(out, byByte)
	for _, size := range []int{2, 3, 7, 64} {
		var chunks [][]byte
		for i := 0; i < len(input); i += size {
			e := i + size
			if e > len(input) {
				e = len(input)
			}
			chunks = append(chunks, input[i:e])
		}
		out = append(out, chunks)
	}
	// Ragged: alternating 1 and 5 byte chunks.
	var ragged [][]byte
	for i := 0; i < len(input); {
		size := 1 + 4*(len(ragged)%2)
		e := i + size
		if e > len(input) {
			e = len(input)
		}
		ragged = append(ragged, input[i:e])
		i = e
	}
	out = append(out, ragged)
	return out
}

// streamRanks runs input through a fresh stream under the given
// chunking and collects (rank, start, end) triples.
func streamRanks(t *Tokenizer, chunks [][]byte) ([]token.Token, int) {
	s := t.AcquireStream()
	defer t.ReleaseStream(s)
	var toks []token.Token
	emit := func(tok token.Token, _ []byte) { toks = append(toks, tok) }
	for _, c := range chunks {
		s.Feed(c, emit)
	}
	rest := s.Close(emit)
	return toks, rest
}

// streamBatchRanks is streamRanks through FeedBatch/CloseBatch.
func streamBatchRanks(t *Tokenizer, chunks [][]byte) ([]token.Token, int) {
	s := t.AcquireStream()
	defer t.ReleaseStream(s)
	var toks []token.Token
	sink := func(batch []token.Token) { toks = append(toks, batch...) }
	for _, c := range chunks {
		s.FeedBatch(c, sink)
	}
	rest := s.CloseBatch(sink)
	return toks, rest
}

// checkAgainstReference pins the streamed encoding of input to the
// reference encoder: same ranks, contiguous offsets, decodable back to
// the input; the batched path must emit the same tokens.
func checkAgainstReference(t *testing.T, tok *Tokenizer, input []byte) {
	t.Helper()
	want := tok.Vocab().Encode(nil, input)
	for ci, chunks := range chunkings(input) {
		toks, rest := streamRanks(tok, chunks)
		if rest != len(input) {
			t.Fatalf("chunking %d: rest = %d, want %d", ci, rest, len(input))
		}
		if len(toks) != len(want) {
			t.Fatalf("chunking %d: %d tokens streamed, reference %d (input %q)",
				ci, len(toks), len(want), clip(input))
		}
		pos := 0
		for i, tk := range toks {
			if tk.Rule != want[i] {
				t.Fatalf("chunking %d: token %d rank %d, reference %d (input %q)",
					ci, i, tk.Rule, want[i], clip(input))
			}
			if tk.Start != pos {
				t.Fatalf("chunking %d: token %d starts at %d, want %d", ci, i, tk.Start, pos)
			}
			if got := tok.Vocab().Token(tk.Rule); tk.End-tk.Start != len(got) {
				t.Fatalf("chunking %d: token %d spans %d bytes, token is %d", ci, i, tk.End-tk.Start, len(got))
			}
			pos = tk.End
		}
		if pos != len(input) {
			t.Fatalf("chunking %d: tokens cover %d bytes, input is %d", ci, pos, len(input))
		}
		btoks, brest := streamBatchRanks(tok, chunks)
		if brest != rest || !slices.Equal(btoks, toks) {
			t.Fatalf("chunking %d: FeedBatch emitted %d tokens rest %d, Feed %d tokens rest %d",
				ci, len(btoks), brest, len(toks), rest)
		}
	}
}

func clip(b []byte) []byte {
	if len(b) > 120 {
		return b[:120]
	}
	return b
}

// TestStreamMatchesReference is the end-to-end differential test: the
// streaming DFA path must emit exactly the reference encoding under
// every chunking, on prompt-shaped text, edge cases, and raw bytes.
func TestStreamMatchesReference(t *testing.T) {
	inputs := [][]byte{
		[]byte("Hello, world! The quick brown fox jumps over 1234 lazy dogs."),
		[]byte("it's we're they'll I'd you've can't o'clock '"),
		[]byte("café über 日本語 🙂 αλφα привет →"),
		[]byte("x = {\"key\": 42}\n\tif x: return [1, 2.5e3]\n"),
		[]byte("    \t\r\n  spaces   everywhere \n\n"),
		[]byte("a"),
		[]byte(" "),
		[]byte("'"),
		{0xff, 0xfe, 0x80, 0x41, 0xc2}, // invalid UTF-8, stray bytes
		{},
		bytes.Repeat([]byte("ab"), 300),
		workload.Prompts(99, 4096),
	}
	for _, in := range inputs {
		checkAgainstReference(t, testTok, in)
	}
}

// TestCompileBudgetBelowVocabTable: a fused budget the vocab table alone
// fills leaves nothing for the pretokenizer's pair tables, so it must
// serve from the lazy TeDFA loop — not from a default-budget fused
// engine, which is what forwarding a zero remainder would select — and
// still encode exactly like the reference.
func TestCompileBudgetBelowVocabTable(t *testing.T) {
	budget := testTok.VocabMachine().TableBytes() - 1
	for _, b := range []int{budget, testTok.VocabMachine().TableBytes()} {
		tok, err := Compile(testTok.Vocab(), Options{MaxFusedTableBytes: b})
		if err != nil {
			t.Fatal(err)
		}
		if got := tok.EngineMode(); got != "bpe+split-general-lazy" {
			t.Fatalf("budget %d: mode %s, want bpe+split-general-lazy", b, got)
		}
		for _, in := range [][]byte{workload.Prompts(99, 4096), []byte("it's 1234 café\n")} {
			checkAgainstReference(t, tok, in)
		}
	}
}

// TestStreamPiecesMatchScanPieces pins the compiled pretokenizer
// grammar to the hand-rolled reference scanner over realistic text.
func TestStreamPiecesMatchScanPieces(t *testing.T) {
	input := workload.Prompts(3, 1<<15)
	var ref [][2]int
	ScanPieces(input, func(start, end int) { ref = append(ref, [2]int{start, end}) })

	pt := testTok.PretokEngine()
	ps := pt.NewStreamer()
	var got [][2]int
	ps.Feed(input, func(tok token.Token, _ []byte) { got = append(got, [2]int{tok.Start, tok.End}) })
	if rest := ps.Close(func(tok token.Token, _ []byte) { got = append(got, [2]int{tok.Start, tok.End}) }); rest != len(input) {
		t.Fatalf("pretok rest = %d, want %d", rest, len(input))
	}
	if len(got) != len(ref) {
		t.Fatalf("engine found %d pieces, reference %d", len(got), len(ref))
	}
	for i := range got {
		if got[i] != ref[i] {
			t.Fatalf("piece %d: engine %v, reference %v", i, got[i], ref[i])
		}
	}
}

// TestStreamReuse checks pooled streams encode independently: reuse
// after release must not leak state between streams.
func TestStreamReuse(t *testing.T) {
	in1 := []byte("The first stream has its own text entirely.")
	in2 := workload.Prompts(55, 2048)
	want1 := testTok.Vocab().Encode(nil, in1)
	want2 := testTok.Vocab().Encode(nil, in2)
	for round := 0; round < 3; round++ {
		for _, tc := range []struct {
			in   []byte
			want []int
		}{{in1, want1}, {in2, want2}} {
			toks, rest := testTok.TokenizeBytes(tc.in)
			if rest != len(tc.in) {
				t.Fatalf("round %d: rest %d != %d", round, rest, len(tc.in))
			}
			if len(toks) != len(tc.want) {
				t.Fatalf("round %d: %d tokens, want %d", round, len(toks), len(tc.want))
			}
			for i := range toks {
				if toks[i].Rule != tc.want[i] {
					t.Fatalf("round %d token %d: %d != %d", round, i, toks[i].Rule, tc.want[i])
				}
			}
		}
	}
}

// FuzzBPEDifferential fuzzes the full streaming pipeline against the
// reference encoder: any input bytes, any of the catalog chunkings.
func FuzzBPEDifferential(f *testing.F) {
	f.Add([]byte("Hello, world! It's 42 degrees outside."))
	f.Add([]byte("café 日本語 🙂"))
	f.Add([]byte("for i in range(10):\n    print(i)\n"))
	f.Add([]byte{0xff, 0xc2, 0x80, 0x20, 0x27, 0x73})
	f.Add([]byte("       \t\n\r  "))
	f.Add(bytes.Repeat([]byte("the "), 64))
	// Cache churn: >1000 distinct near-max-length pieces drive heavy
	// insert traffic through the piece cache's arenas.
	f.Add(distinctWords(1200, 50))
	f.Fuzz(func(t *testing.T, input []byte) {
		if len(input) > 1<<16 {
			input = input[:1<<16]
		}
		checkAgainstReference(t, testTok, input)
	})
}
