package bpe

import (
	"testing"

	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// benchChunk is the feed size of the pipeline benchmarks: a typical
// network read, so chunk-boundary work is paid at its serving rate.
const benchChunk = 16 << 10

// benchBodies times one batched pass over a prompt-shaped body per
// iteration, in benchChunk feeds, after one untimed pass that warms the
// pools and caches.
func benchBodies(b *testing.B, pass func(body []byte, sink func([]token.Token))) {
	body := workload.Prompts(31, 256<<10)
	sink := func([]token.Token) {}
	pass(body, sink)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pass(body, sink)
	}
}

// BenchmarkBPEFeedBatch runs the whole serving pipeline (pretokenizer,
// piece cache, vocab scan) the way the daemon does: a pooled stream per
// body and batched emission. The pooled stream's piece cache is warm,
// so this times the hit path.
func BenchmarkBPEFeedBatch(b *testing.B) {
	benchBodies(b, func(body []byte, sink func([]token.Token)) {
		s := testTok.AcquireStream()
		for off := 0; off < len(body); off += benchChunk {
			s.FeedBatch(body[off:min(off+benchChunk, len(body))], sink)
		}
		s.CloseBatch(sink)
		testTok.ReleaseStream(s)
	})
}

// BenchmarkPretokFeed times the pretokenizer engine alone on the same
// body: the StreamTok layer of the pipeline, without any vocab work.
func BenchmarkPretokFeed(b *testing.B) {
	pt := testTok.PretokEngine()
	benchBodies(b, func(body []byte, sink func([]token.Token)) {
		s := pt.AcquireStreamer()
		for off := 0; off < len(body); off += benchChunk {
			s.FeedBatch(body[off:min(off+benchChunk, len(body))], sink)
		}
		s.CloseBatch(sink)
		pt.ReleaseStreamer(s)
	})
}
