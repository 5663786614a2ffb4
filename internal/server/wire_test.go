package server

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"slices"
	"strconv"
	"strings"
	"testing"

	"streamtok"
	"streamtok/internal/token"
	"streamtok/internal/workload"
)

// The reference wire format: the per-token line and record formatters
// and the summary line the batch encoders must reproduce byte for byte.

// refTokenLine appends one NDJSON token line. quoted holds each rule
// name as a JSON string; rules outside it get no "name".
func refTokenLine(dst []byte, tk token.Token, text []byte, quoted [][]byte, withText bool) []byte {
	dst = append(dst, `{"start":`...)
	dst = strconv.AppendInt(dst, int64(tk.Start), 10)
	dst = append(dst, `,"end":`...)
	dst = strconv.AppendInt(dst, int64(tk.End), 10)
	dst = append(dst, `,"rule":`...)
	dst = strconv.AppendInt(dst, int64(tk.Rule), 10)
	if tk.Rule >= 0 && tk.Rule < len(quoted) {
		dst = append(dst, `,"name":`...)
		dst = append(dst, quoted[tk.Rule]...)
	}
	if withText {
		dst = append(dst, `,"text":`...)
		dst = appendJSONString(dst, string(text))
	}
	return append(dst, '}', '\n')
}

// refRecord appends one 24-byte binary record.
func refRecord(dst []byte, tk token.Token) []byte {
	var rec [24]byte
	binary.LittleEndian.PutUint64(rec[0:], uint64(tk.Start))
	binary.LittleEndian.PutUint64(rec[8:], uint64(tk.End))
	binary.LittleEndian.PutUint32(rec[16:], uint32(tk.Rule))
	binary.LittleEndian.PutUint32(rec[20:], 0)
	return append(dst, rec[:]...)
}

// refSummary appends the clean-stream NDJSON summary line.
func refSummary(dst []byte, tokens, tokenBytes uint64, consumed, base int64, rest int, cursor []byte) []byte {
	dst = append(dst, `{"done":true`...)
	dst = append(dst, `,"tokens":`...)
	dst = strconv.AppendUint(dst, tokens, 10)
	dst = append(dst, `,"token_bytes":`...)
	dst = strconv.AppendUint(dst, tokenBytes, 10)
	dst = append(dst, `,"bytes_in":`...)
	dst = strconv.AppendInt(dst, consumed, 10)
	dst = append(dst, `,"rest":`...)
	dst = strconv.AppendInt(dst, int64(rest), 10)
	if base > 0 {
		dst = append(dst, `,"offset":`...)
		dst = strconv.AppendInt(dst, base, 10)
	}
	if cursor != nil {
		dst = append(dst, `,"cursor":"`...)
		dst = base64.RawURLEncoding.AppendEncode(dst, cursor)
		dst = append(dst, '"')
	}
	dst = append(dst, `,"complete":`...)
	dst = strconv.AppendBool(dst, int64(rest) == base+consumed)
	return append(dst, '}', '\n')
}

// quotedNames is each rule name of ent as a JSON string; nil for a
// vocabulary, whose ranks have no name.
func quotedNames(ent *Entry) [][]byte {
	if ent.Grammar == nil {
		return nil
	}
	q := make([][]byte, ent.Grammar.NumRules())
	for i := range q {
		q[i] = appendJSONString(nil, ent.Grammar.RuleName(i))
	}
	return q
}

// wireFormats are the response shapes under test, as query suffixes.
var wireFormats = []struct{ name, query string }{
	{"ndjson", ""},
	{"count", "&count=1"},
	{"bin", "&format=bin"},
	{"text", "&text=1"},
	{"count+text", "&count=1&text=1"}, // count wins: summary only
}

// wireResponse is a response body plus its binary-format trailers.
type wireResponse struct {
	body     []byte
	trailers map[string]string
}

var wireTrailers = []string{"X-Streamtok-Tokens", "X-Streamtok-Rest", "X-Streamtok-Error", "X-Streamtok-Cursor"}

// refResponse builds the response the handler must produce for body
// fed in chunks of chunk bytes: a per-token Feed through a streamer of
// its own, framed by the reference formatters.
func refResponse(t *testing.T, ent *Entry, blob, body []byte, chunk int, format string, hold bool) wireResponse {
	t.Helper()
	st := ent.Tok.AcquireStreamer()
	if blob != nil {
		ent.Tok.ReleaseStreamer(st)
		var err error
		if st, err = streamtok.Resume(ent.Tok, blob); err != nil {
			t.Fatal(err)
		}
	}
	defer ent.Tok.ReleaseStreamer(st)
	quoted := quotedNames(ent)
	base := int64(st.Offset())
	var out []byte
	var tokens, tokenBytes uint64
	emit := func(tk streamtok.Token, text []byte) {
		tokens++
		tokenBytes += uint64(tk.Len())
		switch format {
		case "bin":
			out = refRecord(out, tk)
		case "ndjson", "text":
			out = refTokenLine(out, tk, text, quoted, format == "text")
		}
	}
	var consumed int64
	var rest int
	var cursor []byte
	stopped := false
	for off := 0; off < len(body); off += chunk {
		c := body[off:min(off+chunk, len(body))]
		st.Feed(c, emit)
		consumed += int64(len(c))
		if stopped = st.Stopped(); stopped {
			rest = st.Rest()
			break
		}
	}
	switch {
	case stopped:
	case hold:
		var err error
		if cursor, err = st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		rest = st.PendingStart()
	default:
		rest = st.Close(emit)
	}
	if format != "bin" {
		return wireResponse{body: refSummary(out, tokens, tokenBytes, consumed, base, rest, cursor)}
	}
	enc := ""
	if cursor != nil {
		enc = base64.RawURLEncoding.EncodeToString(cursor)
	}
	return wireResponse{body: out, trailers: map[string]string{
		"X-Streamtok-Tokens": strconv.FormatUint(tokens, 10),
		"X-Streamtok-Rest":   strconv.Itoa(rest),
		"X-Streamtok-Error":  "",
		"X-Streamtok-Cursor": enc,
	}}
}

// chunkReader returns at most n bytes per Read, so the handler sees
// exactly n-byte chunks.
type chunkReader struct {
	data []byte
	n    int
}

func (r *chunkReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	k := copy(p[:min(len(p), r.n)], r.data)
	r.data = r.data[k:]
	return k, nil
}

// serveWire runs one request through the handler in process.
func serveWire(t *testing.T, h http.Handler, query string, body []byte, chunk int) wireResponse {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/tokenize?"+query, &chunkReader{data: body, n: chunk})
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	res := rec.Result()
	got, _ := io.ReadAll(res.Body)
	if res.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", query, res.StatusCode, got)
	}
	out := wireResponse{body: got}
	if len(res.Trailer) > 0 {
		out.trailers = map[string]string{}
		for _, k := range wireTrailers {
			out.trailers[k] = res.Trailer.Get(k)
		}
	}
	return out
}

func sameWire(t *testing.T, what string, got, want wireResponse) {
	t.Helper()
	if !bytes.Equal(got.body, want.body) {
		i := 0
		for i < len(got.body) && i < len(want.body) && got.body[i] == want.body[i] {
			i++
		}
		lo := max(0, i-40)
		t.Fatalf("%s: body differs at byte %d of %d (want %d)\n got  %q\n want %q", what, i,
			len(got.body), len(want.body), got.body[lo:min(len(got.body), i+40)], want.body[lo:min(len(want.body), i+40)])
	}
	for _, k := range wireTrailers {
		if got.trailers[k] != want.trailers[k] {
			t.Fatalf("%s: trailer %s = %q, want %q", what, k, got.trailers[k], want.trailers[k])
		}
	}
}

// cursorOf extracts the resume cursor from a held response.
func cursorOf(t *testing.T, r wireResponse, format string) []byte {
	t.Helper()
	enc := r.trailers["X-Streamtok-Cursor"]
	if format != "bin" {
		i := bytes.LastIndex(r.body, []byte(`"cursor":"`))
		if i < 0 {
			return nil
		}
		rest := r.body[i+len(`"cursor":"`):]
		enc = string(rest[:bytes.IndexByte(rest, '"')])
	}
	if enc == "" {
		return nil
	}
	blob, err := base64.RawURLEncoding.DecodeString(enc)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// checkWire compares the handler against the reference on body, in
// every format or only those named: one fresh request, then the same
// body split at cut into a held request and a ?cursor= resume (whose
// first start continues no previous end in its own response).
func checkWire(t *testing.T, h http.Handler, ent *Entry, source string, body []byte, chunk, cut int, formats ...string) {
	t.Helper()
	for _, f := range wireFormats {
		if len(formats) > 0 && !slices.Contains(formats, f.name) {
			continue
		}
		what := fmt.Sprintf("%s/%s/chunk=%d", source, f.name, chunk)
		got := serveWire(t, h, source+f.query, body, chunk)
		sameWire(t, what+"/fresh", got, refResponse(t, ent, nil, body, chunk, f.name, false))
		if ent.Vocab != nil || cut <= 0 {
			continue // vocab streams are not resumable
		}
		held := serveWire(t, h, source+f.query+"&hold=1", body[:cut], chunk)
		sameWire(t, what+"/hold", held, refResponse(t, ent, nil, body[:cut], chunk, f.name, true))
		blob := cursorOf(t, held, f.name)
		if blob == nil {
			continue // the stream died before the cut
		}
		q := source + f.query + "&cursor=" + base64.RawURLEncoding.EncodeToString(blob)
		resumed := serveWire(t, h, q, body[cut:], chunk)
		sameWire(t, what+"/resume", resumed, refResponse(t, ent, blob, body[cut:], chunk, f.name, false))
	}
}

// TestWireByteIdentity pins the batch encoders to the reference wire
// format: every catalog grammar, chunk sizes from 1 byte to 64 KiB,
// every response format, fresh and resumed streams, dead input, offsets
// crossing 999999→1000000, and a vocabulary whose ranks have no name.
func TestWireByteIdentity(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	h := s.Handler()
	bodySize := map[int]int{1: 400, 7: 3000, 4096: 16 << 10, 64 << 10: 72 << 10}
	for _, name := range streamtok.Catalog() {
		ent, err := s.Registry().Lookup(name)
		if err != nil {
			msg, _, _ := strings.Cut(err.Error(), "\n")
			t.Logf("%s: not served (%s)", name, msg)
			continue
		}
		for _, chunk := range []int{1, 7, 4096, 64 << 10} {
			body, err := workload.Generate(name, 11, bodySize[chunk])
			if err != nil {
				body = workload.SQLInserts(11, bodySize[chunk]) // sql-inserts
			}
			checkWire(t, h, ent, "grammar="+name, body, chunk, len(body)*2/5+1)
		}
	}

	// Dead input: '@' matches no JSON rule, so the stream stops partway,
	// before the cut or after it.
	jent, err := s.Registry().Lookup("json")
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{7, 4096} {
		rec := []byte(`{"k": [1, 2.5, true, null], "s": "x"}` + "\n")
		body := slices.Concat(bytes.Repeat(rec, 150), []byte("@"), bytes.Repeat(rec, 150))
		checkWire(t, h, jent, "grammar=json", body, chunk, len(body)/4)
		checkWire(t, h, jent, "grammar=json", body, chunk, len(body)*3/4)
	}

	// A 1 MB log stream: contiguous offsets cross 999999→1000000 inside
	// a fresh request and inside a resumed one, in the formats that print
	// offsets as decimals.
	ent, err := s.Registry().Lookup("log")
	if err != nil {
		t.Fatal(err)
	}
	big, err := workload.Log("linux", 3, 1_000_200)
	if err != nil {
		t.Fatal(err)
	}
	checkWire(t, h, ent, "grammar=log", big, 64<<10, 999_990, "ndjson", "text")

	path, _ := writeTestVocab(t, t.TempDir(), "toy")
	vent, err := s.Registry().LoadVocab(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 7, 4096, 64 << 10} {
		checkWire(t, h, vent, "vocab=toy", workload.Prompts(5, bodySize[chunk]), chunk, 0)
	}
}

// TestDecimalAdd checks the in-place decimal addition across carries
// and digit-count changes.
func TestDecimalAdd(t *testing.T) {
	for _, c := range []struct{ v, n int }{
		{0, 0}, {0, 9}, {9, 1}, {99, 1}, {95, 17}, {999999, 1}, {999998, 12345},
		{0, math.MaxInt64}, {math.MaxInt64 - 10, 10}, {12, 1 << 40},
	} {
		var x decimal
		x.set(c.v)
		x.add(c.n)
		if got, want := string(x.digits()), strconv.Itoa(c.v+c.n); got != want {
			t.Errorf("%d+%d = %s, want %s", c.v, c.n, got, want)
		}
	}
}

// fuzzRuleNames is the tail table FuzzNDJSONEncode encodes against:
// names that need escaping, plus rules outside the table.
var fuzzRuleNames = []string{"WORD", `Q"T`, "tab\there", "ünï", "\x01"}

// FuzzNDJSONEncode feeds random token batches — contiguous, gapped,
// and with rules outside the name table — through the NDJSON encoder
// and compares every byte against the strconv reference. ops is read
// three bytes per token: a gap byte g (odd: the start jumps by g/2; bit
// 1 set: the token goes through the ?text=1 line instead), a length (a
// multiple of 7 ends the current batch), and a signed rule.
func FuzzNDJSONEncode(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 0, 0, 3, 1, 0, 1, 2})
	f.Add(int64(999_990), []byte{0, 5, 0, 0, 5, 1, 0, 200, 4, 3, 1, 5})
	f.Add(int64(8), []byte{0, 1, 0, 0, 1, 1, 0, 90, 2, 0, 1, 3})
	f.Add(int64(math.MaxInt64-600), []byte{0, 255, 1, 9, 255, 0xff})
	f.Add(int64(123), []byte{2, 4, 0, 6, 2, 3, 0, 0, 0, 0x80, 3, 1})
	f.Fuzz(func(t *testing.T, base int64, ops []byte) {
		if base < 0 {
			base = -base
		}
		if base < 0 {
			return // MinInt64
		}
		names := make([][]byte, len(fuzzRuleNames))
		for i, n := range fuzzRuleNames {
			names[i] = appendJSONString(nil, n)
		}
		tails := ruleTails(len(fuzzRuleNames), func(i int) string { return fuzzRuleNames[i] })
		var sink bytes.Buffer
		o := &wire{buf: make([]byte, 0, 64), w: &sink}
		enc := newNDJSONEncoder(tails)
		var want []byte
		var batch []token.Token
		pos := int(base)
		for i := 0; i+3 <= len(ops); i += 3 {
			gap, n, rule := ops[i], int(ops[i+1]), int(int8(ops[i+2]))
			if gap&1 == 1 {
				pos += int(gap >> 1)
			}
			if pos < 0 || pos > math.MaxInt64-n {
				break
			}
			tk := token.Token{Start: pos, End: pos + n, Rule: rule}
			pos = tk.End
			if gap&2 != 0 {
				enc.batch(o, batch)
				batch = batch[:0]
				text := ops[i:]
				enc.textLine(o, tk, text)
				want = refTokenLine(want, tk, text, names, true)
				continue
			}
			batch = append(batch, tk)
			want = refTokenLine(want, tk, nil, names, false)
			if ops[i+1]%7 == 0 {
				enc.batch(o, batch)
				batch = batch[:0]
			}
		}
		enc.batch(o, batch)
		o.writeOut()
		if !bytes.Equal(sink.Bytes(), want) {
			t.Fatalf("encoder output differs from reference\n got  %q\n want %q", sink.Bytes(), want)
		}
	})
}
