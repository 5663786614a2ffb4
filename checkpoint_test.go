package streamtok_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"streamtok"
	"streamtok/internal/machinefile"
	"streamtok/internal/workload"
)

// checkpointFormats are the bounded catalog grammars with a workload
// generator — the differential matrix for resumable streams.
var checkpointFormats = []string{"json", "csv", "tsv", "xml", "yaml", "fasta", "dns", "log"}

func compileCatalog(t *testing.T, name string, opts streamtok.Options) *streamtok.Tokenizer {
	t.Helper()
	g, err := streamtok.CatalogGrammar(name)
	if err != nil {
		t.Fatal(err)
	}
	tok, err := streamtok.NewWithOptions(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	return tok
}

// feedChunks pushes input through s in fixed-size chunks, appending
// emitted tokens to *out and verifying every emitted text against the
// token's absolute offsets into the original input.
func feedChunks(t *testing.T, s *streamtok.Streamer, input, full []byte, chunk int, out *[]streamtok.Token) {
	t.Helper()
	emit := func(tk streamtok.Token, text []byte) {
		if tk.Start < 0 || tk.End > len(full) || !bytes.Equal(text, full[tk.Start:tk.End]) {
			t.Fatalf("token %+v text %q disagrees with input offsets", tk, text)
		}
		*out = append(*out, tk)
	}
	for off := 0; off < len(input); off += chunk {
		end := off + chunk
		if end > len(input) {
			end = len(input)
		}
		s.Feed(input[off:end], emit)
	}
}

// TestCheckpointResumeDifferential is the tentpole correctness test:
// for every bounded catalog grammar, under the fused engine and — for
// K ≥ 2 grammars — the split-general-lazy loop a 1-byte fused budget
// forces, a single pass feeds the input in small chunks and takes a
// cursor at every chunk boundary (proving Checkpoint does not perturb
// the live stream), then every cursor is resumed on a second tokenizer
// of the same build and driven to EOF. Each resumed stream must emit
// exactly the reference tokens the suspended stream had not yet
// emitted, with identical offsets, texts, and Rest.
func TestCheckpointResumeDifferential(t *testing.T) {
	for _, name := range checkpointFormats {
		// k is the grammar's lookahead bound, read from the fused build,
		// which runs first.
		k := -1
		for _, mode := range []struct {
			label string // "split" stands for the split-general-lazy mode
			opts  streamtok.Options
		}{
			{"fused", streamtok.Options{}},
			{"split", streamtok.Options{MaxFusedTableBytes: 1}},
		} {
			if mode.label == "split" && k < 2 {
				continue // K ≤ 1 grammars always run fused
			}
			t.Run(name+"/"+mode.label, func(t *testing.T) {
				tokA := compileCatalog(t, name, mode.opts)
				tokB := compileCatalog(t, name, mode.opts)
				k = tokA.K()
				input, err := workload.Generate(name, 7, 600)
				if err != nil {
					t.Fatal(err)
				}
				wantToks, wantRest := tokA.TokenizeBytes(input)

				const chunk = 3
				// Single pass: cursor at every chunk boundary.
				type mark struct {
					cursor  []byte
					emitted int // tokens emitted before the boundary
				}
				var marks []mark
				var live []streamtok.Token
				s := tokA.AcquireStreamer()
				for off := 0; off < len(input); off += chunk {
					end := off + chunk
					if end > len(input) {
						end = len(input)
					}
					cur, err := s.Checkpoint()
					if err != nil {
						t.Fatalf("checkpoint at %d: %v", off, err)
					}
					marks = append(marks, mark{cur, len(live)})
					feedChunks(t, s, input[off:end], input, chunk, &live)
				}
				if rest := s.Close(func(tk streamtok.Token, text []byte) {
					live = append(live, tk)
				}); rest != wantRest {
					t.Fatalf("checkpointed pass rest %d, want %d", rest, wantRest)
				}
				tokA.ReleaseStreamer(s)
				if len(live) != len(wantToks) {
					t.Fatalf("checkpointed pass emitted %d tokens, want %d (Checkpoint perturbed the stream)",
						len(live), len(wantToks))
				}
				for i := range wantToks {
					if live[i] != wantToks[i] {
						t.Fatalf("checkpointed pass token %d = %+v, want %+v", i, live[i], wantToks[i])
					}
				}

				// Resume every cursor and drive it to EOF.
				for mi, m := range marks {
					boundary := mi * chunk
					r, err := streamtok.Resume(tokB, m.cursor)
					if err != nil {
						t.Fatalf("resume cursor at byte %d: %v", boundary, err)
					}
					var suffix []streamtok.Token
					feedChunks(t, r, input[boundary:], input, 64, &suffix)
					rest := r.Close(func(tk streamtok.Token, text []byte) {
						suffix = append(suffix, tk)
					})
					tokB.ReleaseStreamer(r)
					if rest != wantRest {
						t.Fatalf("cursor at %d: rest %d, want %d", boundary, rest, wantRest)
					}
					want := wantToks[m.emitted:]
					if len(suffix) != len(want) {
						t.Fatalf("cursor at %d: resumed stream emitted %d tokens, want %d",
							boundary, len(suffix), len(want))
					}
					for i := range want {
						if suffix[i] != want[i] {
							t.Fatalf("cursor at %d: token %d = %+v, want %+v",
								boundary, i, suffix[i], want[i])
						}
					}
				}
			})
		}
	}
}

// TestResumeCrossEngine: a cursor taken under the fused-general engine
// resumes on a split-general-lazy build of the same grammar (forced with
// a 1-byte fused budget), and vice versa. The cursor carries byte-level
// state only, so it is portable across engine representations; the QA
// cross-check is skipped when modes differ.
func TestResumeCrossEngine(t *testing.T) {
	input, err := workload.Generate("json", 11, 800)
	if err != nil {
		t.Fatal(err)
	}
	fused := compileCatalog(t, "json", streamtok.Options{})
	split := compileCatalog(t, "json", streamtok.Options{MaxFusedTableBytes: 1})
	if fm, sm := fused.Engine().Mode, split.Engine().Mode; fm != "fused-general" || sm != "split-general-lazy" {
		t.Fatalf("json modes %q and %q, want fused-general and split-general-lazy", fm, sm)
	}
	wantToks, wantRest := fused.TokenizeBytes(input)

	for _, dir := range []struct {
		label      string
		from, onto *streamtok.Tokenizer
	}{
		{"fused->split", fused, split},
		{"split->fused", split, fused},
	} {
		t.Run(dir.label, func(t *testing.T) {
			cut := 413 // mid-token on purpose: any byte offset is checkpointable
			s := dir.from.AcquireStreamer()
			var prefix []streamtok.Token
			feedChunks(t, s, input[:cut], input, 7, &prefix)
			cur, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			dir.from.ReleaseStreamer(s)

			r, err := streamtok.Resume(dir.onto, cur)
			if err != nil {
				t.Fatal(err)
			}
			got := append([]streamtok.Token(nil), prefix...)
			feedChunks(t, r, input[cut:], input, 7, &got)
			rest := r.Close(func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
			dir.onto.ReleaseStreamer(r)
			if rest != wantRest || len(got) != len(wantToks) {
				t.Fatalf("rest %d tokens %d, want %d/%d", rest, len(got), wantRest, len(wantToks))
			}
			for i := range wantToks {
				if got[i] != wantToks[i] {
					t.Fatalf("token %d = %+v, want %+v", i, got[i], wantToks[i])
				}
			}
		})
	}
}

// TestResumeWrongGrammar: the cert-hash binding refuses a cursor taken
// under a different grammar.
func TestResumeWrongGrammar(t *testing.T) {
	jsonTok := compileCatalog(t, "json", streamtok.Options{})
	csvTok := compileCatalog(t, "csv", streamtok.Options{})
	s := jsonTok.AcquireStreamer()
	s.Feed([]byte(`{"a": 1`), nil)
	cur, err := s.Checkpoint()
	jsonTok.ReleaseStreamer(s)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamtok.Resume(csvTok, cur); !errors.Is(err, streamtok.ErrCursor) || !errors.Is(err, streamtok.ErrCertMismatch) {
		t.Fatalf("wrong-grammar resume error = %v, want ErrCursor wrapping ErrCertMismatch", err)
	}
	// Same grammar, fresh compile: accepted.
	jsonTok2 := compileCatalog(t, "json", streamtok.Options{})
	r, err := streamtok.Resume(jsonTok2, cur)
	if err != nil {
		t.Fatalf("same-grammar resume refused: %v", err)
	}
	jsonTok2.ReleaseStreamer(r)
}

// TestCursorTampering: every truncation and every single-bit flip of a
// valid cursor is refused (CRC32 detects all single-bit errors), as is
// garbage. Refusals wrap both ErrCursor and machinefile.ErrFormat.
func TestCursorTampering(t *testing.T) {
	tok := compileCatalog(t, "json", streamtok.Options{})
	s := tok.AcquireStreamer()
	s.Feed([]byte(`{"key": [1, 2.5e-3, "str`), nil)
	cur, err := s.Checkpoint()
	tok.ReleaseStreamer(s)
	if err != nil {
		t.Fatal(err)
	}

	refuse := func(blob []byte, what string) {
		t.Helper()
		if _, err := streamtok.Resume(tok, blob); !errors.Is(err, streamtok.ErrCursor) || !errors.Is(err, machinefile.ErrFormat) {
			t.Fatalf("%s: error = %v, want ErrCursor wrapping machinefile.ErrFormat", what, err)
		}
	}

	for n := 0; n < len(cur); n++ {
		refuse(cur[:n], fmt.Sprintf("truncation to %d bytes", n))
	}
	for i := 0; i < len(cur); i++ {
		for bit := 0; bit < 8; bit++ {
			flipped := append([]byte(nil), cur...)
			flipped[i] ^= 1 << bit
			refuse(flipped, fmt.Sprintf("bit flip at byte %d bit %d", i, bit))
		}
	}
	refuse(nil, "nil blob")
	refuse(bytes.Repeat([]byte{0xAA}, 64), "garbage")
}

// TestCheckpointAtEOF: a stream suspended after its entire input (but
// before Close) resumes and drains the tail correctly.
func TestCheckpointAtEOF(t *testing.T) {
	tok := compileCatalog(t, "csv", streamtok.Options{})
	input, err := workload.Generate("csv", 3, 400)
	if err != nil {
		t.Fatal(err)
	}
	wantToks, wantRest := tok.TokenizeBytes(input)

	s := tok.AcquireStreamer()
	var prefix []streamtok.Token
	feedChunks(t, s, input, input, 5, &prefix)
	cur, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tok.ReleaseStreamer(s)

	r, err := streamtok.Resume(tok, cur)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]streamtok.Token(nil), prefix...)
	rest := r.Close(func(tk streamtok.Token, _ []byte) { got = append(got, tk) })
	tok.ReleaseStreamer(r)
	if rest != wantRest || len(got) != len(wantToks) {
		t.Fatalf("rest %d tokens %d, want %d/%d", rest, len(got), wantRest, len(wantToks))
	}
	for i := range wantToks {
		if got[i] != wantToks[i] {
			t.Fatalf("token %d = %+v, want %+v", i, got[i], wantToks[i])
		}
	}
}

// TestCheckpointStopped: stopped and released streams refuse Checkpoint.
func TestCheckpointStopped(t *testing.T) {
	tok := compileCatalog(t, "json", streamtok.Options{})
	s := tok.NewStreamer()
	s.Feed([]byte(`[1]`), nil)
	s.Close(nil)
	if _, err := s.Checkpoint(); err == nil {
		t.Error("Checkpoint of a closed stream should fail")
	}
	s2 := tok.AcquireStreamer()
	tok.ReleaseStreamer(s2)
	if _, err := s2.Checkpoint(); err == nil {
		t.Error("Checkpoint of a released streamer should fail")
	}
}

// TestCheckpointBPE: cursors work for BPE tokenizers — the pretokenizer
// boundary state is the only cross-chunk state, so a resumed stream's
// pieces match the reference encoding exactly (the piece cache restarts
// cold and re-earns its hits).
func TestCheckpointBPE(t *testing.T) {
	v := trainTestVocab(t)
	tok, err := streamtok.Compile(v, streamtok.Options{})
	if err != nil {
		t.Fatal(err)
	}
	input := workload.Prompts(5, 1<<13)
	want := v.Encode(nil, input)

	cut := len(input) / 3
	s := tok.AcquireStreamer()
	var ids []int
	emit := func(tk streamtok.Token, _ []byte) { ids = append(ids, tk.Rule) }
	s.Feed(input[:cut], emit)
	cur, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tok.ReleaseStreamer(s)

	r, err := streamtok.Resume(tok, cur)
	if err != nil {
		t.Fatal(err)
	}
	r.Feed(input[cut:], emit)
	rest := r.Close(emit)
	tok.ReleaseStreamer(r)
	if rest != len(input) {
		t.Fatalf("rest %d, want %d", rest, len(input))
	}
	if len(ids) != len(want) {
		t.Fatalf("resumed BPE stream produced %d pieces, want %d", len(ids), len(want))
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("piece %d = %d, want %d", i, ids[i], want[i])
		}
	}
}

// TestResumeCounters: a resumed stream's own Stats continue from the
// suspension point, and the tokenizer aggregate counts each byte and
// token exactly once across a same-process suspend/resume cycle.
func TestResumeCounters(t *testing.T) {
	tok := compileCatalog(t, "log", streamtok.Options{})
	input, err := workload.Generate("log", 9, 1000)
	if err != nil {
		t.Fatal(err)
	}
	wantToks, _ := tok.TokenizeBytes(input)
	// TokenizeBytes runs through the pooled streamer path and folds into
	// the aggregate; snapshot the baseline to measure only the cycle.
	base := tok.AggregateStats()

	cut := len(input) / 2
	s := tok.AcquireStreamer()
	s.Feed(input[:cut], nil)
	cur, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	tok.ReleaseStreamer(s) // suspended segment folds its share here

	r, err := streamtok.Resume(tok, cur)
	if err != nil {
		t.Fatal(err)
	}
	r.Feed(input[cut:], nil)
	r.Close(nil)

	// Per-stream view is cumulative across the suspension.
	st := r.Stats()
	if st.BytesIn != uint64(len(input)) {
		t.Errorf("resumed stream BytesIn = %d, want %d (cursor counters not adopted)", st.BytesIn, len(input))
	}
	if st.TokensOut != uint64(len(wantToks)) {
		t.Errorf("resumed stream TokensOut = %d, want %d", st.TokensOut, len(wantToks))
	}
	tok.ReleaseStreamer(r)

	// Aggregate counts the cycle once: the suspended segment folded
	// [0,cut) and the resumed stream folds only its delta.
	agg := tok.AggregateStats()
	if got := agg.BytesIn - base.BytesIn; got != uint64(len(input)) {
		t.Errorf("aggregate BytesIn delta = %d, want %d (suspend/resume double-counted)", got, len(input))
	}
	if got := agg.TokensOut - base.TokensOut; got != uint64(len(wantToks)) {
		t.Errorf("aggregate TokensOut delta = %d, want %d", got, len(wantToks))
	}
	if got := agg.Streams - base.Streams; got != 2 {
		t.Errorf("aggregate Streams delta = %d, want 2 (each segment counts)", got)
	}
}
