package server

import (
	"encoding/binary"
	"io"
	"net/http"
	"strconv"

	"streamtok/internal/token"
)

// wireFlushSize is the response write-out granularity: an encoder hands
// its buffer to the ResponseWriter each time this much output has
// accumulated, and drive flushes it once more at every chunk boundary,
// so a token leaves no later than the end of the chunk that confirmed
// it.
const wireFlushSize = 32 << 10

// wireCap is a pooled buffer's capacity: the write-out size plus room
// for the line that crosses it, so the common case never regrows.
// wireMaxPooled drops buffers that grew past it (a long ?text=1 token)
// instead of pinning them in the pool.
const (
	wireCap       = wireFlushSize + 4<<10
	wireMaxPooled = 1 << 20
)

// recordSize is one binary token record: start int64, end int64,
// rule int32, reserved int32, little-endian.
const recordSize = 24

// wire is one response's output buffer, drawn from Server.wires. The
// encoders append whole batches into buf, passing it through spill
// after each token.
type wire struct {
	buf []byte
	w   io.Writer
	err error // first write error; later output is dropped, as bufio does
}

// writeOut hands the buffered bytes to the writer and empties the buffer.
func (o *wire) writeOut() {
	if len(o.buf) > 0 && o.err == nil {
		_, o.err = o.w.Write(o.buf)
	}
	o.buf = o.buf[:0]
}

// spill writes b (o.buf, appended to) out once it holds wireFlushSize
// bytes, and returns the buffer to go on appending to. An encoder keeps
// b in a local across a batch and stores it back into o.buf at the end.
func (o *wire) spill(b []byte) []byte {
	if len(b) < wireFlushSize {
		return b
	}
	o.buf = b
	o.writeOut()
	return o.buf
}

// flush writes the buffer out and pushes it to the client, when w is an
// http.Flusher.
func (o *wire) flush() {
	o.writeOut()
	if f, ok := o.w.(http.Flusher); ok {
		f.Flush()
	}
}

// records appends one binary record per token.
func (o *wire) records(batch []token.Token) {
	b := o.buf
	for _, tk := range batch {
		n := len(b)
		b = append(b, make([]byte, recordSize)...)
		r := b[n : n+recordSize]
		binary.LittleEndian.PutUint64(r[0:], uint64(tk.Start))
		binary.LittleEndian.PutUint64(r[8:], uint64(tk.End))
		binary.LittleEndian.PutUint32(r[16:], uint32(tk.Rule))
		b = o.spill(b)
	}
	o.buf = b
}

// ruleTails precomputes, for each of n rules, the NDJSON line tail
// `,"rule":R,"name":"N"`, so a token line costs one append after its
// offsets.
func ruleTails(n int, name func(int) string) [][]byte {
	tails := make([][]byte, n)
	for i := range tails {
		t := strconv.AppendInt([]byte(`,"rule":`), int64(i), 10)
		t = append(t, `,"name":`...)
		tails[i] = appendJSONString(t, name(i))
	}
	return tails
}

// ndjsonEncoder formats token lines
// {"start":S,"end":E,"rule":R,"name":"N"}. Offsets are non-negative and
// a token stream is contiguous (each start is the previous end), so it
// keeps the previous end as decimal digits and produces the next end by
// adding the token length to them in place; strconv runs only for a
// start that does not follow on (the first token of a request) and for
// rules outside the tail table (vocab ranks, which have no name).
type ndjsonEncoder struct {
	tails   [][]byte
	prevEnd int // -1 until the first token
	num     decimal
}

func newNDJSONEncoder(tails [][]byte) ndjsonEncoder {
	return ndjsonEncoder{tails: tails, prevEnd: -1}
}

// batch appends one line per token to o, handing the buffer to the
// writer each time it fills.
func (e *ndjsonEncoder) batch(o *wire, batch []token.Token) {
	b := o.buf
	for _, tk := range batch {
		b = o.spill(append(e.appendLine(b, tk), '}', '\n'))
	}
	o.buf = b
}

// textLine appends one ?text=1 line: the batch line with
// ,"text":"..." before the closing brace.
func (e *ndjsonEncoder) textLine(o *wire, tk token.Token, text []byte) {
	b := append(e.appendLine(o.buf, tk), `,"text":`...)
	b = appendJSONString(b, string(text))
	o.buf = o.spill(append(b, '}', '\n'))
}

// appendLine appends a token line up to its closing brace.
func (e *ndjsonEncoder) appendLine(b []byte, tk token.Token) []byte {
	if tk.Start != e.prevEnd {
		e.num.set(tk.Start)
	}
	b = append(b, `{"start":`...)
	b = append(b, e.num.digits()...)
	b = append(b, `,"end":`...)
	e.num.add(tk.End - tk.Start)
	e.prevEnd = tk.End
	b = append(b, e.num.digits()...)
	if uint(tk.Rule) < uint(len(e.tails)) {
		return append(b, e.tails[tk.Rule]...)
	}
	b = append(b, `,"rule":`...)
	return strconv.AppendInt(b, int64(tk.Rule), 10)
}

// decimal is a non-negative integer held as right-aligned ASCII digits
// in d[lo:].
type decimal struct {
	d  [19]byte // fits any non-negative int64
	lo int
}

func (x *decimal) set(v int) {
	s := strconv.AppendInt(x.d[:0], int64(v), 10)
	x.lo = len(x.d) - len(s)
	copy(x.d[x.lo:], s)
}

func (x *decimal) digits() []byte { return x.d[x.lo:] }

// add adds n ≥ 0 to x, whose sum must still fit an int64, touching
// only the digits the carry reaches.
func (x *decimal) add(n int) {
	for i := len(x.d) - 1; n > 0; i-- {
		if i < x.lo {
			x.lo = i
			x.d[i] = '0'
		}
		s := int(x.d[i]-'0') + n
		x.d[i] = byte('0' + s%10)
		n = s / 10
	}
}
