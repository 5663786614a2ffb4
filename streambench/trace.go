package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"streamtok"
	"streamtok/internal/analysis"
	"streamtok/internal/analysis/cert"
	"streamtok/internal/bpe"
	"streamtok/internal/core"
	"streamtok/internal/fused"
	"streamtok/internal/grammars"
	"streamtok/internal/parallel"
	"streamtok/internal/server"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// perLayer lists the traced run's metrics. Each is measured around a
// call into one layer's public entry point, from this package, so the
// program itself carries no tracing. Metrics of a layer a workload does
// not use read 0.
var perLayer = []struct{ name, unit string }{
	// Compile path, per grammar (mean over an ad-hoc workload's grammars).
	{"tokdfa.compile_ms", "ms"},
	{"tokdfa.dfa_states", "count"},
	{"analysis.analyze_ms", "ms"},
	{"analysis.alloc_mb", "MB"},
	{"tepath.build_ms", "ms"},
	{"tepath.states", "count"},
	{"fused.build_ms", "ms"},
	{"fused.table_bytes", "B"},
	{"cert.new_ms", "ms"},
	// Registry, over the workload's request sequence.
	{"registry.hit_ratio", "ratio"},
	{"registry.evictions", "count"},
	{"registry.rejects", "count"},
	{"registry.compile_ms_p50", "ms"},
	{"registry.compile_ms_p99", "ms"},
	// BPE.
	{"bpe.compile_ms", "ms"},
	{"bpe.encode_mbps", "MB/s"},
	{"bpe.cache_hit_ratio", "ratio"},
	{"bpe.fallback_ratio", "ratio"},
	// Engine through the public Tokenizer/Streamer. core.feed_mbps is
	// the sequential single-threaded baseline of the same job.
	{"core.feed_mbps", "MB/s"},
	{"core.ns_per_token", "ns"},
	{"core.allocs_per_stream", "count"},
	{"core.accel_skip_ratio", "ratio"},
	{"core.checkpoint_us", "us"},
	{"core.resume_us", "us"},
	{"core.cursor_bytes", "B"},
	// Shard scheduler, nproc streams at once.
	{"sched.wait_us_p50", "us"},
	{"sched.wait_us_p99", "us"},
	{"sched.busy_share", "ratio"},
	{"sched.steal_ratio", "ratio"},
	// Server handler into an in-memory writer.
	{"server.handler_mbps_ndjson", "MB/s"},
	{"server.handler_mbps_bin", "MB/s"},
	{"server.wire_bytes_per_token_ndjson", "B/token"},
	{"server.wire_bytes_per_token_bin", "B/token"},
	{"server.allocs_per_request", "count"},
	{"server.frame_ms_per_mb", "ms/MB"},
	// Loopback and client decode.
	{"net.loopback_ms_per_mb", "ms/MB"},
	{"client.decode_ms_per_mb", "ms/MB"},
	// Shares of the request span.
	{"share.compile", "ratio"},
	{"share.engine", "ratio"},
	{"share.sched_wait", "ratio"},
	{"share.frame", "ratio"},
	{"share.net", "ratio"},
	// Validity of the measurement itself.
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_frac", "ratio"},
}

const (
	chunkSize   = 64 << 10 // the daemon's read-buffer size
	rungRepeats = 3
	// maxRungRepeats bounds the extra rounds taken when a request does
	// not reconcile after rungRepeats: rungs run in separate executions,
	// so a transient stall can leave a lower rung's minimum above the
	// request span until more runs pull it down.
	maxRungRepeats = 8
)

// traceRun holds the traced run's shared state.
type traceRun struct {
	tr      *tracer
	in      *inputs
	res     *result
	reqID   atomic.Int64
	failMsg []string
}

// fail records a failed check; any failure makes the run incorrect.
func (t *traceRun) fail(format string, args ...any) {
	t.res.Failed++
	t.res.Correct = false
	t.failMsg = append(t.failMsg, fmt.Sprintf(format, args...))
}

func (t *traceRun) put(name string, v float64) {
	t.res.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// tracedRun measures each layer in turn on the workload's inputs:
//
//  1. against the daemon, untraced and traced closed-loop slices
//     alternate (trace.overhead_frac), then a traced open loop
//     (loadgen.late_p99_ms);
//  2. the compile path, stage by stage;
//  3. the registry over the request sequence;
//  4. per request, one rung at a time: engine → StreamHandle.Do →
//     Server.Handler().ServeHTTP per format → loopback → client decode,
//     each the minimum of at least rungRepeats runs; a layer's self time is its
//     rung minus the rung below it;
//  5. the scheduler with nproc concurrent streams.
//
// Every rung's output is checked against the request's oracle. Spans
// stay in memory and are written once, at the end.
func tracedRun(o options, sp spec, in *inputs, c *client, conns int, total time.Duration) (*result, error) {
	t := &traceRun{tr: newTracer(), in: in, res: &result{Correct: true, Metrics: map[string]metric{}}}
	for _, m := range perLayer {
		t.put(m.name, 0)
	}
	account := func(p *phase) {
		t.res.Attempted += p.attempted
		t.res.Failed += p.failed
		if p.mismatches > 0 {
			t.res.Correct = false
			t.failMsg = append(t.failMsg, fmt.Sprintf("load phase: %v", p.firstErr))
		}
	}

	// 1. Tracing overhead and generator lateness, against the daemon.
	warm := closedLoop(c, in.reqs, 0, conns, warmup(total), nil)
	account(warm)
	offset := warm.attempted
	var plain, traced float64
	for i := 0; i < 2; i++ {
		for _, tr := range []*tracer{nil, t.tr} {
			p := closedLoop(c, in.reqs, offset, conns, total/8, tr)
			offset += p.attempted
			account(p)
			mbps := float64(p.bytes) / 1e6 / p.wall.Seconds()
			if tr == nil {
				plain += mbps
			} else {
				traced += mbps
			}
		}
	}
	t.put("trace.overhead_frac", 1-traced/plain)
	open := openLoop(c, in.reqs, offset, conns, sp.rate, total/4, t.tr)
	account(open)
	t.put("loadgen.late_p99_ms", percentile(open.late, 0.99))

	// The in-process stack: a registry preloaded like the daemon, the
	// server around it, and the same handler behind a loopback listener.
	reg := server.NewRegistry(0)
	if _, err := preload(reg, in); err != nil {
		return nil, err
	}
	srv := server.New(server.Config{Registry: reg})
	defer srv.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: srv.Handler()}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		hs.Serve(ln)
	}()
	defer func() {
		hs.Close()
		<-serveDone
	}()
	lc := newClient(ln.Addr().String(), 1)
	defer lc.close()

	// 2–3. Compile path and registry.
	seq := traceSequence(in)
	if err := t.compilePath(seq); err != nil {
		return nil, err
	}
	resolveMean := t.registryPass(seq)

	// 4. Rungs, on a subset of the requests.
	subset := rungSubset(sp, in)
	toks := map[*source]*streamtok.Tokenizer{}
	for _, r := range subset {
		if toks[r.src] == nil {
			ent, err := resolve(reg, r)
			if err != nil {
				return nil, fmt.Errorf("resolve %s: %w", r.query, err)
			}
			toks[r.src] = ent.Tok
		}
	}
	sched := parallel.NewScheduler(conns, 0)
	defer sched.Close()
	t.rungs(subset, toks, sched, srv.Handler(), lc, resolveMean)
	if in.vocab != nil {
		if err := t.pretokEngine(subset); err != nil {
			return nil, err
		}
	}
	t.allocPasses(subset, toks, srv.Handler())
	t.checkpoints(subset, toks)

	// 5. Scheduler under nproc concurrent streams.
	t.schedPass(subset, toks, conns)

	path := filepath.Join(o.work, fmt.Sprintf("%s-seed%d.spans.jsonl", sp.name, o.seed))
	if err := t.tr.write(path); err != nil {
		return nil, err
	}
	fmt.Printf("traced run %s seed %d: %d spans written to %s\n", sp.name, o.seed, len(t.tr.spans), path)
	for _, m := range perLayer {
		fmt.Printf("  %-36s %14.4f %s\n", m.name, t.res.Metrics[m.name].Value, m.unit)
	}
	for _, msg := range t.failMsg {
		fmt.Printf("  FAILED: %s\n", msg)
	}
	return t.res, nil
}

// preload loads what the daemon's flags load: a catalog grammar or the
// vocab file. It returns how many lookups touched the registry's
// hit/miss counters.
func preload(reg *server.Registry, in *inputs) (calls int, err error) {
	if in.vocabPath != "" {
		_, err := reg.LoadVocab(in.vocabPath)
		return 0, err
	}
	for i := 0; i+1 < len(in.daemonArgs); i++ {
		if in.daemonArgs[i] == "-preload" {
			calls++
			if _, err := reg.Lookup(in.daemonArgs[i+1]); err != nil {
				return calls, err
			}
		}
	}
	return calls, nil
}

// resolve picks the request's source the way the server does.
func resolve(reg *server.Registry, r *request) (*server.Entry, error) {
	switch {
	case r.src.catalog != "":
		return reg.Lookup(r.src.catalog)
	case r.src.rules != nil:
		return reg.Compile(r.src.rules)
	default:
		return reg.LookupVocab(vocabName)
	}
}

// traceSequence is the request sequence the registry pass replays: the
// first 1024 operations of the load sequence.
func traceSequence(in *inputs) []*request {
	n := 1024
	seq := make([]*request, n)
	for i := range seq {
		seq[i] = in.reqs[i%len(in.reqs)]
	}
	return seq
}

// rungSubset picks the first sp.rungRequests bounded requests for the
// rungs to replay (a refusal never reaches the engine).
func rungSubset(sp spec, in *inputs) []*request {
	n := sp.rungRequests
	var out []*request
	for _, r := range in.reqs {
		if len(out) == n {
			break
		}
		if !r.want.refuse {
			out = append(out, r)
		}
	}
	return out
}

// compileCost is one grammar's pass through the compile pipeline.
type compileCost struct {
	tokdfa, analyze, tepath, fused, cert time.Duration
	allocBytes                           uint64
	dfaStates, teStates, fusedBytes      int
}

// compileGrammar runs the stages streamtok.Compile runs, timing each
// call: tokdfa.Compile → analysis.Analyze → tepath → fused.Build →
// cert.New (on an engine built untimed in between).
func compileGrammar(rules []string) (compileCost, error) {
	var c compileCost
	g, err := tokdfa.ParseGrammar(rules...)
	if err != nil {
		return c, err
	}
	t0 := time.Now()
	m, err := tokdfa.Compile(g, tokdfa.Options{Minimize: true})
	c.tokdfa = time.Since(t0)
	if err != nil {
		return c, err
	}
	c.dfaStates = m.DFA.NumStates()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 = time.Now()
	res := analysis.Analyze(m)
	c.analyze = time.Since(t0)
	runtime.ReadMemStats(&ms1)
	c.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	if !res.Bounded() {
		return c, nil
	}
	k := res.MaxTND
	var te *tepath.Table
	t0 = time.Now()
	switch {
	case k == 1:
		tepath.BuildK1(m)
	case k >= 2:
		// The engine's eager cap; past it the engine goes lazy and the
		// fused build is skipped.
		if te, err = tepath.Build(m, k, tepath.Limits{MaxDFAStates: 1 << 12}); err != nil {
			te = nil
		}
	}
	c.tepath = time.Since(t0)
	if te != nil {
		c.teStates = te.NumStates()
	}
	t0 = time.Now()
	fe := fused.Build(m, k, te, fused.Options{})
	c.fused = time.Since(t0)
	c.fusedBytes = fe.Bytes()
	inner, err := core.NewWithKBudget(m, k, tepath.Limits{}, 0)
	if err != nil {
		return c, err
	}
	t0 = time.Now()
	_, err = cert.New(m, res, inner)
	c.cert = time.Since(t0)
	return c, err
}

// compilePath reports the compile stages: the median of five compiles
// of a workload's one grammar, or the mean over the distinct ad-hoc
// grammars of the sequence. For bpe-prompts the grammar is the
// pretokenizer, and bpe.compile_ms times the whole vocab compile.
func (t *traceRun) compilePath(seq []*request) error {
	in := t.in
	var rulesets [][]string
	repeats := 5
	switch {
	case in.vocab != nil:
		rulesets = [][]string{bpe.PretokRules()}
	case in.sources[0].catalog != "":
		g, err := grammars.Lookup(in.sources[0].catalog)
		if err != nil {
			return err
		}
		rulesets = [][]string{g.Rules}
	default:
		seen := map[*source]bool{}
		for _, r := range seq {
			if !seen[r.src] {
				seen[r.src] = true
				rulesets = append(rulesets, r.src.rules)
			}
		}
		repeats = 1
	}
	var costs []compileCost
	for _, rules := range rulesets {
		for i := 0; i < repeats; i++ {
			start := time.Now()
			c, err := compileGrammar(rules)
			if err != nil {
				return fmt.Errorf("compile path: %w", err)
			}
			t.tr.span("compile", 0, t.reqID.Add(1), start, time.Now())
			costs = append(costs, c)
		}
	}
	agg := func(f func(c compileCost) float64) float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		if repeats > 1 {
			return median(xs)
		}
		return mean(xs)
	}
	t.put("tokdfa.compile_ms", agg(func(c compileCost) float64 { return ms(c.tokdfa) }))
	t.put("tokdfa.dfa_states", agg(func(c compileCost) float64 { return float64(c.dfaStates) }))
	t.put("analysis.analyze_ms", agg(func(c compileCost) float64 { return ms(c.analyze) }))
	t.put("analysis.alloc_mb", agg(func(c compileCost) float64 { return float64(c.allocBytes) / 1e6 }))
	t.put("tepath.build_ms", agg(func(c compileCost) float64 { return ms(c.tepath) }))
	t.put("tepath.states", agg(func(c compileCost) float64 { return float64(c.teStates) }))
	t.put("fused.build_ms", agg(func(c compileCost) float64 { return ms(c.fused) }))
	t.put("fused.table_bytes", agg(func(c compileCost) float64 { return float64(c.fusedBytes) }))
	t.put("cert.new_ms", agg(func(c compileCost) float64 { return ms(c.cert) }))

	if in.vocab != nil {
		var xs []float64
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := bpe.Compile(in.vocab, bpe.Options{}); err != nil {
				return fmt.Errorf("bpe compile: %w", err)
			}
			xs = append(xs, ms(time.Since(start)))
			t.tr.span("bpe.compile", 0, t.reqID.Add(1), start, time.Now())
		}
		t.put("bpe.compile_ms", median(xs))
	}
	return nil
}

// registryPass replays the sequence's source lookups through a fresh
// default-capacity registry preloaded like the daemon, and returns the
// mean time one lookup took. Hits plus misses must equal the lookups
// made.
func (t *traceRun) registryPass(seq []*request) time.Duration {
	reg := server.NewRegistry(0)
	calls, err := preload(reg, t.in)
	if err != nil {
		t.fail("registry preload: %v", err)
		return 0
	}
	var compiles []float64
	var sum time.Duration
	for _, r := range seq {
		misses := reg.Stats().Misses
		start := time.Now()
		_, err := resolve(reg, r)
		dur := time.Since(start)
		sum += dur
		if r.src.catalog != "" || r.src.rules != nil {
			calls++
		}
		var rej *server.RejectError
		switch {
		case r.want.refuse && !errors.As(err, &rej):
			t.fail("registry served an unbounded grammar (err %v)", err)
		case !r.want.refuse && err != nil:
			t.fail("registry refused a bounded grammar: %v", err)
		}
		if reg.Stats().Misses > misses {
			compiles = append(compiles, ms(dur))
			t.tr.span("registry.compile", 0, t.reqID.Add(1), start, start.Add(dur))
		}
	}
	st := reg.Stats()
	if int(st.Hits+st.Misses) != calls {
		t.fail("registry reconciliation: %d hits + %d misses != %d lookups", st.Hits, st.Misses, calls)
	}
	if calls > 0 {
		t.put("registry.hit_ratio", float64(st.Hits)/float64(calls))
	}
	t.put("registry.evictions", float64(st.Evictions))
	t.put("registry.rejects", float64(st.Rejects))
	t.put("registry.compile_ms_p50", percentile(compiles, 0.50))
	t.put("registry.compile_ms_p99", percentile(compiles, 0.99))
	return sum / time.Duration(len(seq))
}

// captureWriter is the in-memory ResponseWriter the handler rung writes
// into: it keeps the bytes so the rung's output can be checked.
type captureWriter struct {
	h    http.Header
	buf  bytes.Buffer
	code int
}

func (w *captureWriter) Header() http.Header         { return w.h }
func (w *captureWriter) Write(p []byte) (int, error) { return w.buf.Write(p) }
func (w *captureWriter) WriteHeader(code int)        { w.code = code }
func (w *captureWriter) Flush()                      {}

func (w *captureWriter) reset() {
	w.h, w.code = http.Header{}, http.StatusOK
	w.buf.Reset()
}

// engineRung feeds body through a pooled streamer in daemon-sized
// chunks. With d non-nil it digests the tokens (for checking, untimed
// use); otherwise it only counts them.
func engineRung(tok *streamtok.Tokenizer, body []byte, d *digest) (time.Duration, int, int) {
	var n int
	sink := func(batch []streamtok.Token) { n += len(batch) }
	if d != nil {
		sink = func(batch []streamtok.Token) {
			for _, tk := range batch {
				d.add(int64(tk.Start), int64(tk.End), int64(tk.Rule))
			}
		}
	}
	start := time.Now()
	st := tok.AcquireStreamer()
	for off := 0; off < len(body); off += chunkSize {
		st.FeedBatch(body[off:min(off+chunkSize, len(body))], sink)
	}
	rest := st.CloseBatch(sink)
	tok.ReleaseStreamer(st)
	return time.Since(start), n, rest
}

// schedRung is engineRung with every chunk run through StreamHandle.Do
// on sched. It returns the time spent inside closures and, when waits
// is set, appends each wait from a Do call to the start of its closure
// in microseconds.
func schedRung(sched *parallel.Scheduler, tok *streamtok.Tokenizer, body []byte, waits *[]float64) (dur, busy time.Duration, ok bool) {
	sink := func([]streamtok.Token) {}
	start := time.Now()
	h, ok := sched.Admit()
	if !ok {
		return 0, 0, false
	}
	st := tok.AcquireStreamer()
	var chunk []byte
	var began, ended time.Time
	feed := func() {
		began = time.Now()
		st.FeedBatch(chunk, sink)
		ended = time.Now()
	}
	closeStream := func() {
		began = time.Now()
		st.CloseBatch(sink)
		ended = time.Now()
	}
	do := func(f func()) {
		call := time.Now()
		h.Do(f)
		busy += ended.Sub(began)
		if waits != nil {
			*waits = append(*waits, float64(began.Sub(call))/1e3)
		}
	}
	for off := 0; off < len(body); off += chunkSize {
		chunk = body[off:min(off+chunkSize, len(body))]
		do(feed)
	}
	do(closeStream)
	tok.ReleaseStreamer(st)
	h.Finish()
	return time.Since(start), busy, true
}

// handlerRung serves one request in process into w.
func handlerRung(h http.Handler, r *request, bin bool, w *captureWriter) time.Duration {
	w.reset()
	req := httptest.NewRequest(http.MethodPost, tokenizePath(r.query, bin), bytes.NewReader(r.body))
	start := time.Now()
	h.ServeHTTP(w, req)
	return time.Since(start)
}

// clientRung posts the request over loopback and reads the whole
// response (the loopback rung), then decodes and checks it like the
// load generator does (the client rung adds the decode). Both parts
// come from one execution, so decode never reads below zero.
func clientRung(lc *client, r *request, buf *bytes.Buffer) (loopback, decode time.Duration, err error) {
	start := time.Now()
	resp, err := lc.post(r.query, r.body, r.bin)
	if err != nil {
		return 0, 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	loopback = time.Since(start)
	if err != nil {
		return loopback, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return loopback, 0, &statusError{resp.StatusCode}
	}
	start = time.Now()
	d := newDigest()
	var l leg
	if r.bin {
		l, err = decodeBin(bytes.NewReader(buf.Bytes()), func() http.Header { return resp.Trailer }, &d)
	} else {
		l, err = decodeNDJSON(bytes.NewReader(buf.Bytes()), &d)
	}
	decode = time.Since(start)
	if err == nil {
		err = checkLeg(l, false)
	}
	if err == nil {
		err = checkOp(r.want, d, l.rest)
	}
	return loopback, decode, err
}

// checkCaptured decodes a handler rung's output and checks it.
func checkCaptured(w *captureWriter, r *request, bin bool) error {
	d := newDigest()
	var l leg
	var err error
	if bin {
		l, err = decodeBin(bytes.NewReader(w.buf.Bytes()), func() http.Header { return w.h }, &d)
	} else {
		l, err = decodeNDJSON(bytes.NewReader(w.buf.Bytes()), &d)
	}
	if err == nil && w.code != http.StatusOK {
		err = &statusError{w.code}
	}
	if err == nil {
		err = checkLeg(l, false)
	}
	if err == nil {
		err = checkOp(r.want, d, l.rest)
	}
	return err
}

// rungTimes is one request's rung minima.
type rungTimes struct {
	engine, sched, ndjson, bin, loopback, client time.Duration
}

// handler returns the handler rung in the request's own format.
func (rt rungTimes) handler(r *request) time.Duration {
	if r.bin {
		return rt.bin
	}
	return rt.ndjson
}

func (rt rungTimes) chain(r *request) []time.Duration {
	return []time.Duration{rt.engine, rt.sched, rt.handler(r), rt.loopback, rt.client}
}

// reconciled reports whether the self times, each the amount a rung
// adds over the slowest rung below it, sum to no more than the request
// span (the client rung).
func (rt rungTimes) reconciled(r *request) bool {
	var top, selfSum time.Duration
	for _, d := range rt.chain(r) {
		selfSum += max(0, d-top)
		top = max(top, d)
	}
	return selfSum <= rt.client
}

// rungs times every rung for each request and derives the self times.
// Reconciliation: walking up the rungs, each layer's self time is what
// its rung adds over the slowest rung below it, so the self times sum
// to the largest rung — and that must be the request span, the client
// rung, which runs every layer below it.
func (t *traceRun) rungs(subset []*request, toks map[*source]*streamtok.Tokenizer, sched *parallel.Scheduler, h http.Handler, lc *client, resolveMean time.Duration) {
	var w captureWriter
	var resp bytes.Buffer
	var bytesIn, tokens, wireN, wireB float64
	var sum rungTimes
	var frame, netSelf, decode, schedSelf time.Duration
	for _, r := range subset {
		tok := toks[r.src]
		req := t.reqID.Add(1)
		root := t.tr.reserve()
		reqStart := time.Now()
		rt := rungTimes{engine: 1 << 62, sched: 1 << 62, ndjson: 1 << 62, bin: 1 << 62, loopback: 1 << 62, client: 1 << 62}
		keep := func(dst *time.Duration, name string, start time.Time, d time.Duration) {
			t.tr.span(name, root, req, start, start.Add(d))
			*dst = min(*dst, d)
		}
		// One checked pass of the engine; the timed repeats only count.
		dg := newDigest()
		if _, _, rest := engineRung(tok, r.body, &dg); checkOp(r.want, dg, rest) != nil {
			t.fail("engine rung: %v", checkOp(r.want, dg, rest))
		}
		t.res.Attempted++
		for i := 0; i < maxRungRepeats && (i < rungRepeats || !rt.reconciled(r)); i++ {
			s := time.Now()
			d, n, _ := engineRung(tok, r.body, nil)
			keep(&rt.engine, "rung.engine", s, d)
			if i == 0 {
				tokens += float64(n)
			}
			s = time.Now()
			d, _, ok := schedRung(sched, tok, r.body, nil)
			if !ok {
				t.fail("scheduler refused admission")
			}
			keep(&rt.sched, "rung.sched", s, d)
			for _, bin := range []bool{false, true} {
				s = time.Now()
				d = handlerRung(h, r, bin, &w)
				if bin {
					keep(&rt.bin, "rung.handler.bin", s, d)
				} else {
					keep(&rt.ndjson, "rung.handler.ndjson", s, d)
				}
				if i == 0 {
					t.res.Attempted++
					if err := checkCaptured(&w, r, bin); err != nil {
						t.fail("handler rung (bin=%v): %v", bin, err)
					}
					if bin {
						wireB += float64(w.buf.Len())
					} else {
						wireN += float64(w.buf.Len())
					}
				}
			}
			s = time.Now()
			lb, dec, err := clientRung(lc, r, &resp)
			t.res.Attempted++
			if err != nil {
				t.fail("client rung: %v", err)
			}
			keep(&rt.loopback, "rung.loopback", s, lb)
			keep(&rt.client, "rung.client", s, lb+dec)
		}
		t.tr.spanID(root, "request", 0, req, reqStart, time.Now())

		if !rt.reconciled(r) {
			t.fail("trace reconciliation: request %d self times sum to more than its span %s (rungs %v)",
				req, rt.client, rt.chain(r))
		}
		bytesIn += float64(len(r.body))
		sum.engine += rt.engine
		sum.sched += rt.sched
		sum.ndjson += rt.ndjson
		sum.bin += rt.bin
		sum.client += rt.client
		schedSelf += max(0, rt.sched-rt.engine)
		frame += max(0, rt.handler(r)-max(rt.sched, rt.engine))
		netSelf += max(0, rt.loopback-max(rt.handler(r), rt.sched, rt.engine))
		decode += max(0, rt.client-max(rt.loopback, rt.handler(r), rt.sched, rt.engine))
	}
	mb := bytesIn / 1e6
	perMB := func(d time.Duration) float64 { return ms(d) / mb }
	if t.in.vocab != nil {
		t.put("bpe.encode_mbps", mb/sum.engine.Seconds())
	} else {
		t.put("core.feed_mbps", mb/sum.engine.Seconds())
		t.put("core.ns_per_token", float64(sum.engine.Nanoseconds())/tokens)
	}
	t.put("server.handler_mbps_ndjson", mb/sum.ndjson.Seconds())
	t.put("server.handler_mbps_bin", mb/sum.bin.Seconds())
	t.put("server.wire_bytes_per_token_ndjson", wireN/tokens)
	t.put("server.wire_bytes_per_token_bin", wireB/tokens)
	t.put("server.frame_ms_per_mb", perMB(frame))
	t.put("net.loopback_ms_per_mb", perMB(netSelf))
	t.put("client.decode_ms_per_mb", perMB(decode))
	// The request span: one lookup in the registry plus the client rung.
	span := float64(resolveMean)*float64(len(subset)) + float64(sum.client)
	t.put("share.compile", float64(resolveMean)*float64(len(subset))/span)
	t.put("share.engine", float64(sum.engine)/span)
	t.put("share.sched_wait", float64(schedSelf)/span)
	t.put("share.frame", float64(frame)/span)
	t.put("share.net", float64(netSelf)/span)
}

// pretokEngine measures the BPE workload's pretokenizer alone, the
// plain engine under the vocab pipeline.
func (t *traceRun) pretokEngine(subset []*request) error {
	g, err := streamtok.ParseGrammar(bpe.PretokRules()...)
	if err != nil {
		return err
	}
	tok, err := streamtok.Compile(g, streamtok.Options{Minimize: true})
	if err != nil {
		return err
	}
	var bytesIn, tokens float64
	var sum time.Duration
	for _, r := range subset {
		best := time.Duration(1 << 62)
		for i := 0; i < rungRepeats; i++ {
			d, n, _ := engineRung(tok, r.body, nil)
			best = min(best, d)
			if i == 0 {
				tokens += float64(n)
			}
		}
		sum += best
		bytesIn += float64(len(r.body))
	}
	t.put("core.feed_mbps", bytesIn/1e6/sum.Seconds())
	t.put("core.ns_per_token", float64(sum.Nanoseconds())/tokens)
	return nil
}

// allocPasses counts heap allocations per stream (engine) and per
// request (handler, in the request's format), and the engine's
// observability ratios, on warm pools.
func (t *traceRun) allocPasses(subset []*request, toks map[*source]*streamtok.Tokenizer, h http.Handler) {
	before := map[*streamtok.Tokenizer]streamtok.Stats{}
	for _, tok := range toks {
		before[tok] = tok.AggregateStats()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, r := range subset {
		engineRung(toks[r.src], r.body, nil)
	}
	runtime.ReadMemStats(&m1)
	t.put("core.allocs_per_stream", float64(m1.Mallocs-m0.Mallocs)/float64(len(subset)))
	var in, skipped, pieces, fallbacks, hits float64
	for tok, b := range before {
		a := tok.AggregateStats()
		in += float64(a.BytesIn - b.BytesIn)
		skipped += float64(a.AccelSkippedBytes - b.AccelSkippedBytes)
		pieces += float64(a.BPEPieces - b.BPEPieces)
		fallbacks += float64(a.BPEFallbacks - b.BPEFallbacks)
		hits += float64(a.BPECacheHits - b.BPECacheHits)
	}
	if t.in.vocab == nil && in > 0 {
		t.put("core.accel_skip_ratio", skipped/in)
	}
	if pieces > 0 {
		t.put("bpe.cache_hit_ratio", hits/pieces)
		t.put("bpe.fallback_ratio", fallbacks/pieces)
	}

	var w captureWriter
	runtime.ReadMemStats(&m0)
	for _, r := range subset {
		handlerRung(h, r, r.bin, &w)
	}
	runtime.ReadMemStats(&m1)
	t.put("server.allocs_per_request", float64(m1.Mallocs-m0.Mallocs)/float64(len(subset)))
}

// checkpoints suspends each grammar request's stream at its cut (or
// midway), resumes it from the cursor, and checks the resumed stream
// against the single-shot oracle.
func (t *traceRun) checkpoints(subset []*request, toks map[*source]*streamtok.Tokenizer) {
	if t.in.vocab != nil {
		return // vocab streams are not resumable
	}
	var ck, rs, size []float64
	for _, r := range subset {
		tok := toks[r.src]
		cut := r.cut
		if cut == 0 {
			cut = len(r.body) / 2
		}
		d := newDigest()
		sink := func(batch []streamtok.Token) {
			for _, tk := range batch {
				d.add(int64(tk.Start), int64(tk.End), int64(tk.Rule))
			}
		}
		st := tok.AcquireStreamer()
		for off := 0; off < cut; off += chunkSize {
			st.FeedBatch(r.body[off:min(off+chunkSize, cut)], sink)
		}
		req := t.reqID.Add(1)
		start := time.Now()
		blob, err := st.Checkpoint()
		mid := time.Now()
		stopped := st.Stopped()
		tok.ReleaseStreamer(st)
		if err != nil {
			if !stopped { // dead input before the cut leaves nothing to resume
				t.fail("checkpoint: %v", err)
			}
			continue
		}
		resumeStart := time.Now()
		st2, err := streamtok.Resume(tok, blob)
		end := time.Now()
		t.tr.span("core.checkpoint", 0, req, start, mid)
		t.tr.span("core.resume", 0, req, resumeStart, end)
		t.res.Attempted++
		if err != nil {
			t.fail("resume: %v", err)
			continue
		}
		for off := cut; off < len(r.body); off += chunkSize {
			st2.FeedBatch(r.body[off:min(off+chunkSize, len(r.body))], sink)
		}
		rest := st2.CloseBatch(sink)
		tok.ReleaseStreamer(st2)
		if err := checkOp(r.want, d, rest); err != nil {
			t.fail("resumed stream: %v", err)
		}
		ck = append(ck, float64(mid.Sub(start))/1e3)
		rs = append(rs, float64(end.Sub(resumeStart))/1e3)
		size = append(size, float64(len(blob)))
	}
	t.put("core.checkpoint_us", median(ck))
	t.put("core.resume_us", median(rs))
	t.put("core.cursor_bytes", mean(size))
}

// schedPass runs the subset through a fresh scheduler from conns
// goroutines at once, as the daemon's handlers would.
func (t *traceRun) schedPass(subset []*request, toks map[*source]*streamtok.Tokenizer, conns int) {
	sched := parallel.NewScheduler(conns, 0)
	defer sched.Close()
	var next atomic.Int64
	var mu sync.Mutex
	var waits []float64
	var busy time.Duration
	start := time.Now()
	var wg sync.WaitGroup
	for g := 0; g < conns; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []float64
			var b time.Duration
			for {
				i := int(next.Add(1)) - 1
				if i >= 4*len(subset) {
					break
				}
				r := subset[i%len(subset)]
				if _, bz, ok := schedRung(sched, toks[r.src], r.body, &local); ok {
					b += bz
				}
			}
			mu.Lock()
			waits = append(waits, local...)
			busy += b
			mu.Unlock()
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	st := sched.Stats()
	t.put("sched.wait_us_p50", percentile(waits, 0.50))
	t.put("sched.wait_us_p99", percentile(waits, 0.99))
	t.put("sched.busy_share", busy.Seconds()/(wall.Seconds()*float64(conns)))
	if st.Dispatched > 0 {
		t.put("sched.steal_ratio", float64(st.Stolen)/float64(st.Dispatched))
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
