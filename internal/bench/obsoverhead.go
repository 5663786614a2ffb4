package bench

import (
	"fmt"
	"time"

	"streamtok/internal/analysis"
	"streamtok/internal/core"
	"streamtok/internal/grammars"
	"streamtok/internal/tepath"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// ObsOverhead measures what the always-on observability counters cost
// (ISSUE 3): for each hotloop workload it times the normal engine
// against a benchmark-only build with the counter updates compiled out
// (core.NewNoObsWithK) and reports the throughput delta, on both
// emission paths: Feed with a text callback, and FeedBatch in 64 KiB
// chunks — the path the daemon serves from, where the per-token
// counter update sits inline in the engine loops. The counters update
// per chunk, per token, and per accel event — never per byte — so the
// overhead target is under 3% everywhere.
func ObsOverhead(cfg Config) Table {
	t := Table{
		Title:  "ObsOverhead: always-on counters vs no-obs build (MB/s)",
		Note:   "no-obs is a benchmark-only variant; overhead = 1 - obs/no-obs; path feed = Feed with a text callback, batch = FeedBatch in 64 KiB chunks",
		Header: []string{"workload", "grammar", "mode", "path", "no-obs", "obs", "overhead"},
	}
	emit := func(token.Token, []byte) {}
	sink := func([]token.Token) {}
	paths := []struct {
		name string
		run  func(s *core.Streamer, input []byte)
	}{
		{"feed", func(s *core.Streamer, input []byte) {
			s.Feed(input, emit)
			s.Close(emit)
		}},
		{"batch", func(s *core.Streamer, input []byte) {
			for off := 0; off < len(input); off += 64 << 10 {
				s.FeedBatch(input[off:min(off+64<<10, len(input))], sink)
			}
			s.CloseBatch(sink)
		}},
	}
	run := func(tok *core.Tokenizer, input []byte, path func(*core.Streamer, []byte)) time.Duration {
		start := time.Now()
		path(tok.NewStreamer(), input)
		return time.Since(start)
	}
	// Interleave the variants trial-by-trial and keep each one's minimum:
	// alternating runs see the same machine drift, and the minimum
	// approximates the noise-free time better than the median on shared
	// hardware.
	measurePair := func(a, b *core.Tokenizer, input []byte, path func(*core.Streamer, []byte)) (float64, float64) {
		run(a, input, path) // warm the tables and the page cache
		run(b, input, path)
		trials := cfg.Trials
		if trials < 1 {
			trials = 1
		}
		minA, minB := time.Duration(1<<62), time.Duration(1<<62)
		for i := 0; i < trials; i++ {
			if d := run(a, input, path); d < minA {
				minA = d
			}
			if d := run(b, input, path); d < minB {
				minB = d
			}
		}
		mbps := func(d time.Duration) float64 { return float64(len(input)) / 1e6 / d.Seconds() }
		return mbps(minA), mbps(minB)
	}

	type workloadCase struct {
		name    string
		grammar string
		input   []byte
	}
	n := cfg.size(4_000_000)
	mustGen := func(format string) []byte {
		in, err := workload.Generate(format, cfg.Seed, n)
		if err != nil {
			panic(err)
		}
		return in
	}
	cases := []workloadCase{
		{"json", "json", mustGen("json")},
		{"csv", "csv", mustGen("csv")},
		{"log", "log", mustGen("log")},
		{"xml", "xml", mustGen("xml")},
		{"json-longstr", "json", workload.JSONWithTokenLen(cfg.Seed, n, 512)},
		{"log-aligned", "log", workload.LogAligned(cfg.Seed, n, 32)},
		{"csv-longfield", "csv", workload.CSVWithTokenLen(cfg.Seed, n, 256)},
	}
	var sumOverhead float64
	for _, c := range cases {
		spec, err := grammars.Lookup(c.grammar)
		if err != nil {
			panic(err)
		}
		m := spec.Machine()
		res := analysis.Analyze(m)
		noObs, err := core.NewNoObsWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		obsTok, err := core.NewWithK(m, res.MaxTND, tepath.Limits{})
		if err != nil {
			panic(err)
		}
		for _, p := range paths {
			no, ob := measurePair(noObs, obsTok, c.input, p.run)
			overhead := 1 - ob/no
			sumOverhead += overhead
			t.Rows = append(t.Rows, []string{
				c.name, c.grammar, obsTok.EngineMode(), p.name,
				fmt.Sprintf("%.1f", no), fmt.Sprintf("%.1f", ob),
				fmt.Sprintf("%+.1f%%", overhead*100),
			})
		}
	}
	t.Rows = append(t.Rows, []string{
		"mean", "-", "-", "-", "-", "-",
		fmt.Sprintf("%+.1f%%", sumOverhead/float64(len(cases)*len(paths))*100),
	})
	return t
}
