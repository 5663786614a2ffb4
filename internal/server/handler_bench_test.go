package server

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// discardResponse is a ResponseWriter that drops the body, so a handler
// benchmark times tokenizing plus framing and nothing of the network.
type discardResponse struct {
	h    http.Header
	code int
}

func (w *discardResponse) Header() http.Header         { return w.h }
func (w *discardResponse) Write(p []byte) (int, error) { return len(p), nil }
func (w *discardResponse) WriteHeader(code int)        { w.code = code }
func (w *discardResponse) Flush()                      {}

// benchHandler serves 640 KiB log bodies through the full handler in
// the format query selects.
func benchHandler(b *testing.B, query string) {
	body, err := workload.Log("linux", 1, 640<<10)
	if err != nil {
		b.Fatal(err)
	}
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	serve := func() {
		req := httptest.NewRequest(http.MethodPost, "/tokenize?grammar=log"+query, bytes.NewReader(body))
		w := &discardResponse{h: http.Header{}, code: http.StatusOK}
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			b.Fatalf("status %d", w.code)
		}
	}
	serve() // compile the grammar and warm the pools
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
}

func BenchmarkHandlerNDJSON(b *testing.B) { benchHandler(b, "") }
func BenchmarkHandlerBin(b *testing.B)    { benchHandler(b, "&format=bin") }
func BenchmarkHandlerCount(b *testing.B)  { benchHandler(b, "&count=1") }

// BenchmarkNDJSONEncode times the NDJSON encoder alone: a 640 KiB log
// body is tokenized once up front, and each iteration encodes its
// tokens, in batches of the engine's batch size (512), into a fresh
// response's wire that discards its output.
func BenchmarkNDJSONEncode(b *testing.B) {
	body, err := workload.Log("linux", 1, 640<<10)
	if err != nil {
		b.Fatal(err)
	}
	ent, err := NewRegistry(0).Lookup("log")
	if err != nil {
		b.Fatal(err)
	}
	var toks []token.Token
	sink := func(batch []token.Token) { toks = append(toks, batch...) }
	st := ent.Tok.AcquireStreamer()
	st.FeedBatch(body, sink)
	st.CloseBatch(sink)
	ent.Tok.ReleaseStreamer(st)
	o := &wire{buf: make([]byte, 0, wireCap)}
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		*o = wire{buf: o.buf[:0], w: io.Discard}
		enc := newNDJSONEncoder(ent.ruleTails)
		for off := 0; off < len(toks); off += 512 {
			enc.batch(o, toks[off:min(off+512, len(toks))])
		}
		o.writeOut()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(toks)), "ns/token")
}
