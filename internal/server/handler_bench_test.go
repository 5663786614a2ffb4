package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"

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
