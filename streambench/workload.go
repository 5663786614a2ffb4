package main

import (
	"fmt"
	"math"
	"math/rand"
	"net/url"
	"os"
	"path/filepath"
	"sort"

	"streamtok/internal/bpe"
	"streamtok/internal/ghdataset"
	"streamtok/internal/grammars"
	"streamtok/internal/tokdfa"
	"streamtok/internal/workload"
)

// request is one operation the load generator sends. A cut request is
// sent as two legs: body[:cut] with ?hold=1, then body[cut:] with the
// cursor the first leg returned; the pair counts as one operation.
type request struct {
	query string // source selection (grammar=, rule=, vocab=) without format
	body  []byte
	bin   bool
	cut   int
	want  oracle
	src   *source
}

// source is one grammar or vocabulary a workload's requests name.
type source struct {
	catalog string          // catalog grammar name, or "" for ad-hoc rules
	rules   []string        // ad-hoc rules
	refuse  bool            // planned unbounded: the daemon must refuse it
	machine *tokdfa.Machine // oracle machine for bounded grammars
	bodies  [][]byte        // generated bodies (ad-hoc grammars)
}

// inputs is everything a run generates from its seed before timing.
type inputs struct {
	reqs       []*request
	sources    []*source
	daemonArgs []string   // daemon flags besides -addr
	vocab      *bpe.Vocab // bpe-prompts only
	vocabPath  string
}

// spec is a workload. rate is the open-loop arrival rate, fixed at
// about a quarter of the closed-loop capacity the seed commit reached
// on a 2-vCPU host shared by the daemon and the load generator (an
// eighth for ad-hoc grammars). At half capacity the host's own speed
// swings, and on ad-hoc grammars single compiles of up to 0.4 s, pushed
// the open loop into backlog often enough that its p90 moved by a
// factor of three between runs.
type spec struct {
	name      string
	rate      float64 // operations per second
	setupRuns int     // daemon starts whose median is setup_s
	// rungRequests is how many requests the traced run's rungs replay,
	// sized so that a traced run takes seconds, not minutes.
	rungRequests int
	build        func(seed int64, work string) (*inputs, error)
}

var specs = []spec{
	{name: "log-stream", rate: 25, setupRuns: 9, rungRequests: 8, build: buildLog},
	{name: "json-bulk", rate: 16, setupRuns: 9, rungRequests: 3, build: buildJSON},
	{name: "bpe-prompts", rate: 160, setupRuns: 5, rungRequests: 32, build: buildBPE},
	{name: "adhoc-grammars", rate: 150, setupRuns: 9, rungRequests: 64, build: buildAdhoc},
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// subSeed derives the seed of the i-th generated item, so items are
// independent of one another and of the pool's order.
func subSeed(seed int64, i int) int64 { return seed*1_000_003 + int64(i) + 1 }

// stratified returns n values spread evenly over [lo, hi], shuffled by
// rng. Sizes are stratified rather than drawn so that the pool's total
// bytes, and with it requests per second, do not swing from seed to
// seed; the seed still decides contents and order.
func stratified(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (float64(i)+0.5)/float64(n)*(hi-lo)
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

func catalogSource(name string) (*source, error) {
	g, err := grammars.Lookup(name)
	if err != nil {
		return nil, err
	}
	return &source{catalog: name, machine: g.Machine()}, nil
}

// buildLog: 32 log bodies of 256 KiB–1 MiB in the twelve LogHub
// formats; half binary, half NDJSON; 4 of the 32 cut mid-body. Formats
// and cuts alternate along the size order, so each format gets the
// same spread of sizes whatever the seed.
func buildLog(seed int64, _ string) (*inputs, error) {
	const n = 32
	src, err := catalogSource("log")
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{sources: []*source{src}, daemonArgs: []string{"-preload", "log"}}
	for i := 0; i < n; i++ {
		size := 256<<10 + (2*i+1)*(768<<10)/(2*n)
		format := workload.LogFormats[rng.Intn(len(workload.LogFormats))]
		body, err := workload.Log(format, subSeed(seed, i), size)
		if err != nil {
			return nil, err
		}
		r := &request{query: "grammar=log", body: body, bin: i%2 == 1, src: src,
			want: grammarOracle(src.machine, body)}
		if i%16 == 3 || i%16 == 12 {
			r.cut = len(body)/10 + rng.Intn(len(body)*8/10)
		}
		in.reqs = append(in.reqs, r)
	}
	rng.Shuffle(n, func(i, j int) { in.reqs[i], in.reqs[j] = in.reqs[j], in.reqs[i] })
	return in, nil
}

// buildJSON: 6 bodies of 4 MiB flat JSON arrays of 512-byte strings,
// all binary.
func buildJSON(seed int64, _ string) (*inputs, error) {
	const n = 6
	src, err := catalogSource("json")
	if err != nil {
		return nil, err
	}
	in := &inputs{sources: []*source{src}, daemonArgs: []string{"-preload", "json"}}
	for i := 0; i < n; i++ {
		body := workload.JSONWithTokenLen(subSeed(seed, i), 4<<20, 512)
		in.reqs = append(in.reqs, &request{query: "grammar=json", body: body, bin: true,
			want: grammarOracle(src.machine, body), src: src})
	}
	return in, nil
}

const (
	vocabName       = "prompts8k"
	vocabMerges     = 8000
	vocabCorpusSize = 3 << 20 // the smallest Prompts corpus that yields all 8000 merges
	vocabMaxTokLen  = 7
)

// buildBPE trains an 8k-merge vocab on a seeded Prompts corpus, writes
// it where the daemon's -vocab flag reads it, and draws 64 prompts
// whose sizes follow a Zipf law over 4 KiB steps from 4 KiB to 256 KiB.
func buildBPE(seed int64, work string) (*inputs, error) {
	const n = 64
	v, err := bpe.Train(workload.Prompts(seed, vocabCorpusSize), vocabMerges, bpe.TrainOptions{MaxTokenLen: vocabMaxTokLen})
	if err != nil {
		return nil, fmt.Errorf("train vocab: %w", err)
	}
	path := filepath.Join(work, vocabName+".tiktoken")
	if err := os.WriteFile(path, v.WriteTiktoken(), 0o644); err != nil {
		return nil, err
	}
	src := &source{}
	in := &inputs{sources: []*source{src}, daemonArgs: []string{"-vocab", path}, vocab: v, vocabPath: path}
	rng := rand.New(rand.NewSource(seed))
	for i, u := range stratified(rng, n, 0, 1) {
		size := zipfStep(u, 64) * 4 << 10
		body := workload.Prompts(subSeed(seed, i), size)[:size]
		in.reqs = append(in.reqs, &request{query: "vocab=" + vocabName, body: body, bin: true,
			want: vocabOracle(v, body), src: src})
	}
	return in, nil
}

// zipfStep maps a quantile u in (0,1) to a step j in [1, steps] with
// P(j) ∝ 1/j.
func zipfStep(u float64, steps int) int {
	total := 0.0
	for j := 1; j <= steps; j++ {
		total += 1 / float64(j)
	}
	acc := 0.0
	for j := 1; j <= steps; j++ {
		acc += 1 / float64(j) / total
		if u <= acc {
			return j
		}
	}
	return steps
}

const (
	adhocRequests = 4096
	adhocZipfS    = 1.1
)

// buildAdhoc sends 4096 ?rule= requests whose grammars follow a Zipf
// law (exponent 1.1) over a ranking of the 2669-grammar corpus; about a
// third of the corpus is unbounded and must be refused. Bodies are at
// most 4 KiB, generated by random walks on each grammar's DFA so that
// they tokenize.
//
// The ranking is fixed (shuffled by the corpus's own seed) and each
// rank gets its expected share of the 4096 requests, rounded; the run's
// seed orders the requests and draws the bodies. Drawing grammars per
// seed instead would make each run compile a different set, and the
// compile tail would swing the results from seed to seed.
func buildAdhoc(seed int64, _ string) (*inputs, error) {
	corpus := ghdataset.Corpus(2026)
	rank := rand.New(rand.NewSource(2026)).Perm(len(corpus))
	weights := make([]float64, len(corpus))
	total := 0.0
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -adhocZipfS)
		total += weights[r]
	}
	counts := make([]int, len(corpus))
	type frac struct {
		r int
		f float64
	}
	var fracs []frac
	left := adhocRequests
	for r, w := range weights {
		e := w / total * adhocRequests
		counts[r] = int(e)
		left -= counts[r]
		fracs = append(fracs, frac{r, e - float64(counts[r])})
	}
	sort.Slice(fracs, func(i, j int) bool { return fracs[i].f > fracs[j].f })
	for _, f := range fracs[:left] {
		counts[f.r]++
	}

	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	for r, n := range counts {
		if n == 0 {
			continue
		}
		e := corpus[rank[r]]
		src, err := adhocSource(e, rand.New(rand.NewSource(subSeed(seed, e.ID))))
		if err != nil {
			return nil, err
		}
		in.sources = append(in.sources, src)
		q := url.Values{"rule": e.Rules}.Encode()
		for i := 0; i < n; i++ {
			body := src.bodies[i%len(src.bodies)]
			req := &request{query: q, body: body, src: src, bin: i%2 == 1}
			if src.refuse {
				req.want = oracle{refuse: true}
			} else {
				req.want = grammarOracle(src.machine, body)
			}
			in.reqs = append(in.reqs, req)
		}
	}
	rng.Shuffle(len(in.reqs), func(i, j int) { in.reqs[i], in.reqs[j] = in.reqs[j], in.reqs[i] })
	return in, nil
}

func adhocSource(e ghdataset.Entry, rng *rand.Rand) (*source, error) {
	src := &source{rules: e.Rules, refuse: e.PlannedTND == ghdataset.Unbounded}
	if src.refuse {
		body := make([]byte, 1024)
		for i := range body {
			body[i] = byte('a' + rng.Intn(26))
		}
		src.bodies = [][]byte{body}
		return src, nil
	}
	g, err := tokdfa.ParseGrammar(e.Rules...)
	if err != nil {
		return nil, fmt.Errorf("corpus grammar %d: %w", e.ID, err)
	}
	if src.machine, err = tokdfa.Compile(g, tokdfa.Options{}); err != nil {
		return nil, fmt.Errorf("corpus grammar %d: %w", e.ID, err)
	}
	for i := 0; i < 2; i++ {
		src.bodies = append(src.bodies, walkBody(src.machine, rng, 512+rng.Intn(4096-512)))
	}
	return src, nil
}

// walkBody concatenates tokens drawn by random walks on m's DFA, so the
// body is made of strings the grammar matches. It returns at most n
// bytes, ending at a token boundary.
func walkBody(m *tokdfa.Machine, rng *rand.Rand, n int) []byte {
	d := m.DFA
	live := map[int][]int{}
	liveClasses := func(q int) []int {
		cs, ok := live[q]
		if !ok {
			for c := 0; c < d.NumClasses(); c++ {
				if !m.IsDead(d.StepClass(q, c)) {
					cs = append(cs, c)
				}
			}
			live[q] = cs
		}
		return cs
	}
	out := make([]byte, 0, n)
	q, lastEnd, inTok := d.Start, 0, false
	for steps := 0; len(out) < n && steps < 8*n; steps++ {
		if inTok && d.IsFinal(q) {
			lastEnd = len(out)
			if rng.Intn(3) == 0 || len(liveClasses(q)) == 0 {
				q, inTok = d.Start, false
				continue
			}
		}
		cs := liveClasses(q)
		if len(cs) == 0 {
			out, q, inTok = out[:lastEnd], d.Start, false
			if len(liveClasses(q)) == 0 {
				break
			}
			continue
		}
		c := cs[rng.Intn(len(cs))]
		out = append(out, d.Reps[c])
		q, inTok = d.StepClass(q, c), true
	}
	return out[:lastEnd]
}
