package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"streamtok/internal/bpe"
	"streamtok/internal/reference"
	"streamtok/internal/tokdfa"
)

// digest folds a token stream into a count and an FNV-1a 64 hash taken
// over 64-bit words, three per token: start, end, rule. Each step is a
// bijection of the running hash, so a stream that differs from the
// oracle in one token never digests equal, and the checker never needs
// to keep a response's tokens. Word-wise folding keeps the load
// generator's per-token cost to three multiplies.
type digest struct {
	tokens uint64
	hash   uint64
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newDigest() digest { return digest{hash: fnvOffset} }

func (d *digest) add(start, end, rule int64) {
	h := d.hash
	h = (h ^ uint64(start)) * fnvPrime
	h = (h ^ uint64(end)) * fnvPrime
	d.hash = (h ^ uint64(rule)) * fnvPrime
	d.tokens++
}

// oracle is the expected outcome of one operation, computed before any
// timing from an implementation independent of the daemon: the
// Definition-1 reference tokenizer for grammars, the reference
// merge-loop encoder for vocabularies, and the corpus's planned
// max-TND for refusals.
type oracle struct {
	refuse bool // the grammar is unbounded: the daemon must answer 422
	want   digest
	rest   int // first byte not covered by a token
}

// grammarOracle runs the reference maximal-munch tokenizer over body.
func grammarOracle(m *tokdfa.Machine, body []byte) oracle {
	toks, rest := reference.Tokens(m, body)
	d := newDigest()
	for _, t := range toks {
		d.add(int64(t.Start), int64(t.End), int64(t.Rule))
	}
	return oracle{want: d, rest: rest}
}

// vocabOracle encodes body with the reference merge loop and rebuilds
// token offsets from the token lengths.
func vocabOracle(v *bpe.Vocab, body []byte) oracle {
	d := newDigest()
	off := 0
	for _, r := range v.Encode(nil, body) {
		n := len(v.Token(r))
		d.add(int64(off), int64(off+n), int64(r))
		off += n
	}
	return oracle{want: d, rest: off}
}

// leg is what the client decoded from one HTTP response: the tokens
// folded into the operation's digest, plus the response's own summary.
type leg struct {
	status   int
	tokens   uint64 // tokens this response carried
	sumCount uint64 // token count the response's summary claims
	rest     int
	cursor   string
	errMsg   string
}

// summary is the NDJSON stream's final line.
type summary struct {
	Done     bool   `json:"done"`
	Error    string `json:"error"`
	Tokens   uint64 `json:"tokens"`
	Rest     int    `json:"rest"`
	Cursor   string `json:"cursor"`
	Complete bool   `json:"complete"`
}

var errNoSummary = errors.New("response ended without a summary line")

// Decode buffers are pooled so that the load generator's own garbage
// collection competes as little as possible with the daemon for the
// host's CPUs.
var (
	readerPool = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 64<<10) }}
	recordPool = sync.Pool{New: func() any { b := make([]byte, 64<<10); return &b }}
)

// decodeNDJSON reads token lines into d until the summary line.
func decodeNDJSON(r io.Reader, d *digest) (leg, error) {
	var out leg
	br := readerPool.Get().(*bufio.Reader)
	br.Reset(r)
	defer func() {
		br.Reset(nil)
		readerPool.Put(br)
	}()
	before := d.tokens
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			return out, fmt.Errorf("ndjson line longer than %d bytes", br.Size())
		}
		if len(line) > 0 {
			if tokLine(line) {
				start, end, rule, perr := parseTokenLine(line)
				if perr != nil {
					return out, perr
				}
				d.add(start, end, rule)
				continue
			}
			var s summary
			if jerr := json.Unmarshal(line, &s); jerr != nil {
				return out, fmt.Errorf("bad summary line %q: %v", line, jerr)
			}
			if !s.Done && s.Error == "" {
				return out, fmt.Errorf("summary line %q has neither done nor error", line)
			}
			out.tokens = d.tokens - before
			out.sumCount, out.rest, out.cursor, out.errMsg = s.Tokens, s.Rest, s.Cursor, s.Error
			// Drain so the connection can be reused.
			if _, derr := io.Copy(io.Discard, br); derr != nil {
				return out, derr
			}
			return out, nil
		}
		if err == io.EOF {
			return out, errNoSummary
		}
		if err != nil {
			return out, err
		}
	}
}

const tokPrefix = `{"start":`

func tokLine(line []byte) bool {
	return len(line) > len(tokPrefix) && string(line[:len(tokPrefix)]) == tokPrefix
}

// parseTokenLine reads {"start":S,"end":E,"rule":R...} without a JSON
// decoder: the framing is fixed, and a per-token json.Unmarshal would
// make the client, not the daemon, the measured bottleneck.
func parseTokenLine(line []byte) (start, end, rule int64, err error) {
	i := len(tokPrefix)
	var ok bool
	if start, i, ok = parseIntField(line, i, ""); !ok {
		return 0, 0, 0, fmt.Errorf("bad token line %q", line)
	}
	if end, i, ok = parseIntField(line, i, `,"end":`); !ok {
		return 0, 0, 0, fmt.Errorf("bad token line %q", line)
	}
	if rule, _, ok = parseIntField(line, i, `,"rule":`); !ok {
		return 0, 0, 0, fmt.Errorf("bad token line %q", line)
	}
	return start, end, rule, nil
}

func parseIntField(line []byte, i int, key string) (int64, int, bool) {
	if len(line) < i+len(key) || string(line[i:i+len(key)]) != key {
		return 0, i, false
	}
	i += len(key)
	neg := i < len(line) && line[i] == '-'
	if neg {
		i++
	}
	j := i
	var v int64
	for j < len(line) && line[j] >= '0' && line[j] <= '9' && j-i < 18 {
		v = v*10 + int64(line[j]-'0')
		j++
	}
	if neg {
		v = -v
	}
	return v, j, j > i
}

// decodeBin reads 24-byte little-endian records (start, end int64;
// rule, reserved int32) into d; the summary arrives in trailers, which
// net/http fills once the body is read to EOF.
func decodeBin(r io.Reader, trailer func() http.Header, d *digest) (leg, error) {
	var out leg
	before := d.tokens
	bufp := recordPool.Get().(*[]byte)
	defer recordPool.Put(bufp)
	buf := *bufp
	have := 0
	for {
		n, err := r.Read(buf[have:])
		have += n
		recs := have / 24 * 24
		for off := 0; off < recs; off += 24 {
			d.add(int64(binary.LittleEndian.Uint64(buf[off:])),
				int64(binary.LittleEndian.Uint64(buf[off+8:])),
				int64(int32(binary.LittleEndian.Uint32(buf[off+16:]))))
		}
		have = copy(buf, buf[recs:have])
		if err == io.EOF {
			break
		}
		if err != nil {
			return out, err
		}
	}
	if have != 0 {
		return out, fmt.Errorf("binary response ends inside a record (%d stray bytes)", have)
	}
	tr := trailer()
	count, cerr := strconv.ParseUint(tr.Get("X-Streamtok-Tokens"), 10, 64)
	rest, rerr := strconv.Atoi(tr.Get("X-Streamtok-Rest"))
	if cerr != nil || rerr != nil {
		return out, fmt.Errorf("binary response without summary trailers (%v)", tr)
	}
	out.tokens = d.tokens - before
	out.sumCount, out.rest = count, rest
	out.cursor, out.errMsg = tr.Get("X-Streamtok-Cursor"), tr.Get("X-Streamtok-Error")
	return out, nil
}

// mismatchError marks an operation whose output disagrees with its
// oracle. Any one of them makes the benchmark report correct=false and
// exit nonzero.
type mismatchError struct{ msg string }

func (e *mismatchError) Error() string { return "output mismatch: " + e.msg }

func mismatch(format string, args ...any) error {
	return &mismatchError{msg: fmt.Sprintf(format, args...)}
}

// checkLeg validates one response on its own: status, stream errors,
// and agreement between the tokens received and the summary's count.
// held marks the first leg of a cut stream, which must carry a cursor.
func checkLeg(l leg, held bool) error {
	if l.errMsg != "" {
		return mismatch("stream reported error %q", l.errMsg)
	}
	if l.tokens != l.sumCount {
		return mismatch("received %d tokens, summary says %d", l.tokens, l.sumCount)
	}
	if held && l.cursor == "" {
		return mismatch("held stream returned no cursor")
	}
	if !held && l.cursor != "" {
		return mismatch("finished stream returned a cursor")
	}
	return nil
}

// checkOp compares an operation's digest and final rest with its
// oracle. For a cut stream d spans both legs, so a resumed stream must
// digest exactly like its single-shot run.
func checkOp(o oracle, d digest, rest int) error {
	if d.tokens != o.want.tokens {
		return mismatch("%d tokens, oracle has %d", d.tokens, o.want.tokens)
	}
	if d.hash != o.want.hash {
		return mismatch("token digest %016x, oracle %016x", d.hash, o.want.hash)
	}
	if rest != o.rest {
		return mismatch("rest %d, oracle %d", rest, o.rest)
	}
	return nil
}
