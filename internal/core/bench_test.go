package core_test

import (
	"testing"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// BenchmarkFeedBatchLog times the engine path the daemon runs for a
// /tokenize request: a warm pooled streamer, a 640 KiB workload.Log
// body fed in 64 KiB FeedBatch chunks (the server's read size), and
// CloseBatch. The log grammar's ~3-byte tokens make it the per-token
// cost that dominates, not the per-byte one.
func BenchmarkFeedBatchLog(b *testing.B) {
	spec, err := grammars.Lookup("log")
	if err != nil {
		b.Fatal(err)
	}
	m := spec.Machine()
	tok, err := core.NewWithK(m, analysis.Analyze(m).MaxTND, tepath.Limits{})
	if err != nil {
		b.Fatal(err)
	}
	body, err := workload.Log("linux", 1, 640<<10)
	if err != nil {
		b.Fatal(err)
	}
	var tokens int
	sink := func(batch []token.Token) { tokens += len(batch) }
	serve := func() {
		s := tok.AcquireStreamer()
		feedAll(s, body, 64<<10, func(s *core.Streamer, part []byte) { s.FeedBatch(part, sink) })
		s.CloseBatch(sink)
		tok.ReleaseStreamer(s)
	}
	serve() // warm the pool
	tokens = 0
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		serve()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(tokens), "ns/token")
}
