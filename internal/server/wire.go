package server

import (
	"encoding/binary"
	"io"
	"net/http"
	"slices"
	"strconv"

	"streamtok/internal/token"
)

// The write-out schedule: an encoder hands its buffer to the
// ResponseWriter once wireFirstWrite bytes have accumulated, and each
// write-out doubles that threshold, up to wireMaxWrite. drive flushes
// the buffer once more at every chunk boundary, so a token leaves no
// later than the end of the chunk that confirmed it. The first write
// is as small as it ever was, so the first bytes leave as early; later
// ones are large because every ResponseWriter.Write of a chunked
// response pays a fixed cost (a chunk header, and a flush of the
// connection's 4 KiB bufio buffer ahead of the body bytes).
const (
	wireFirstWrite = 32 << 10
	wireMaxWrite   = 256 << 10
	wireMaxGrow    = 3 // wireFirstWrite << wireMaxGrow == wireMaxWrite
)

// wireCap is a pooled buffer's capacity: the largest write-out plus
// room for the line that crosses it, so the schedule never regrows it.
// wireMaxPooled drops buffers that grew past it (a long ?text=1 token)
// instead of pinning them in the pool.
const (
	wireCap       = wireMaxWrite + 4<<10
	wireMaxPooled = 1 << 20
)

// recordSize is one binary token record: start int64, end int64,
// rule int32, reserved int32, little-endian.
const recordSize = 24

// wire is one response's output buffer, drawn from Server.wires. The
// encoders append whole batches into buf, passing it through spill
// after each token. The zero value (plus a writer) is ready to use.
type wire struct {
	buf  []byte
	w    io.Writer
	err  error // first write error; later output is dropped, as bufio does
	grow uint8 // write-outs so far, up to wireMaxGrow: spill's threshold is wireFirstWrite << grow
}

// writeOut hands the buffered bytes to the writer, empties the buffer,
// and doubles the next write-out threshold (up to wireMaxWrite).
func (o *wire) writeOut() {
	if len(o.buf) > 0 && o.err == nil {
		_, o.err = o.w.Write(o.buf)
		if o.grow < wireMaxGrow {
			o.grow++
		}
	}
	o.buf = o.buf[:0]
}

// spill writes b (o.buf, appended to) out once it reaches the current
// write-out threshold, and returns the buffer to go on appending to. An
// encoder keeps b in a local across a batch and stores it back into
// o.buf at the end.
func (o *wire) spill(b []byte) []byte {
	if len(b) < wireFirstWrite<<o.grow {
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

// records appends one binary record per token, each stored as three
// words into a [recordSize]byte block of reserved space: the rule and
// the zero reserved field share the last word.
func (o *wire) records(batch []token.Token) {
	b := o.buf
	for _, tk := range batch {
		b = slices.Grow(b, recordSize)
		n := len(b)
		b = b[:n+recordSize]
		r := (*[recordSize]byte)(b[n:])
		binary.LittleEndian.PutUint64(r[0:], uint64(tk.Start))
		binary.LittleEndian.PutUint64(r[8:], uint64(tk.End))
		binary.LittleEndian.PutUint64(r[16:], uint64(uint32(tk.Rule)))
		b = o.spill(b)
	}
	o.buf = b
}

// An NDJSON batch line {"start":S,"end":E,"rule":R,"name":"N"} is
// written as fixed-width block stores into space reserved once per
// line: each store copies a whole block (a literal, an offset's digits
// as decimal.put stores them, or the rule's tail) and the line advances
// by the block's true length, so the next store overwrites the unused
// rest. That replaces a variable-length copy per field with a few
// constant-size moves. Each store starts no later than on the longest
// line (two 19-digit offsets), and there the full tail block's store
// ends last, so lineReserve, that line's span, bounds every store.
const (
	tailBlock   = 48 // a rule tail, through "}\n"
	lineReserve = len(`{"start":`) + 19 + len(`,"end":`) + 19 + tailBlock
)

var (
	startBlock = [16]byte{'{', '"', 's', 't', 'a', 'r', 't', '"', ':'}
	endBlock   = [8]byte{',', '"', 'e', 'n', 'd', '"', ':'}
)

// ruleTail is one rule's NDJSON line tail `,"rule":R,"name":"N"}` plus
// the newline, built once per registry entry: as a slice, and as a
// tailBlock-sized block when it fits in one.
type ruleTail struct {
	line  []byte
	block [tailBlock]byte
}

// fits reports whether the tail has a block (a name short enough).
func (t *ruleTail) fits() bool { return len(t.line) <= tailBlock }

// ruleTails precomputes the line tail of each of n rules, so a token
// line costs one store or append after its offsets.
func ruleTails(n int, name func(int) string) []ruleTail {
	tails := make([]ruleTail, n)
	for i := range tails {
		t := strconv.AppendInt([]byte(`,"rule":`), int64(i), 10)
		t = append(t, `,"name":`...)
		t = append(appendJSONString(t, name(i)), '}', '\n')
		tails[i].line = t
		copy(tails[i].block[:], t)
	}
	return tails
}

// ndjsonEncoder formats token lines
// {"start":S,"end":E,"rule":R,"name":"N"}. Offsets are non-negative and
// a token stream is contiguous (each start is the previous end), so it
// keeps the previous end as a decimal and produces the next end by
// adding the token length to it. A token that follows on and whose
// rule has a tail block is written by blockLine; the rest (the first
// token of a request, gapped starts, rules outside the tail table —
// vocab ranks, which have no name — and over-long names) go through
// appendLine, which runs strconv where it must.
type ndjsonEncoder struct {
	tails   []ruleTail
	prevEnd int // -1 until the first token
	num     decimal
}

func newNDJSONEncoder(tails []ruleTail) ndjsonEncoder {
	return ndjsonEncoder{tails: tails, prevEnd: -1}
}

// batch appends one line per token to o, handing the buffer to the
// writer each time it fills.
func (e *ndjsonEncoder) batch(o *wire, batch []token.Token) {
	b := o.buf
	for _, tk := range batch {
		if tk.Start == e.prevEnd && uint(tk.Rule) < uint(len(e.tails)) && e.tails[tk.Rule].fits() {
			b = e.blockLine(b, tk, &e.tails[tk.Rule])
		} else {
			b = append(e.appendLine(b, tk), '}', '\n')
		}
		b = o.spill(b)
	}
	o.buf = b
}

// blockLine appends the line of a token that starts at the previous
// end, by block stores (see lineReserve).
func (e *ndjsonEncoder) blockLine(b []byte, tk token.Token, t *ruleTail) []byte {
	b = slices.Grow(b, lineReserve)
	n := len(b)
	l := b[n : n+lineReserve]
	*(*[len(startBlock)]byte)(l) = startBlock
	i := len(`{"start":`)
	i += e.num.put(l[i:])
	*(*[len(endBlock)]byte)(l[i:]) = endBlock
	i += len(`,"end":`)
	e.num.add(tk.End - tk.Start)
	e.prevEnd = tk.End
	i += e.num.put(l[i:])
	// Through a local: a copy from a pointer the compiler cannot prove
	// disjoint from the line is a memmove call, from a local a few moves.
	tail := t.block
	*(*[tailBlock]byte)(l[i:]) = tail
	return b[:n+i+len(t.line)]
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
		t := e.tails[tk.Rule].line
		return append(b, t[:len(t)-2]...) // all but "}\n"
	}
	b = append(b, `,"rule":`...)
	return strconv.AppendInt(b, int64(tk.Rule), 10)
}

// decimal is a non-negative integer v held ready to print, as
// v = hi*10000 + lo: hi's decimal digits packed little-endian into two
// words (no digits when hi is 0; an int64's hi has at most 15), lo as
// an int, and lo's digits as one word. Offsets are contiguous, so the
// next end is the previous end plus a token length: add works on lo
// alone, except when it carries into hi (once per 10000 of v), and put
// is three stores. (Adding into ASCII digits in place instead made
// each print a wide load over fresh byte stores, which the CPU cannot
// forward from its store buffer.)
type decimal struct {
	hi    [2]uint64
	hiLen int            // digits in hi, 0 when hi is 0
	hiVal int            // hi
	lo    int            // v % 10000
	loW   uint32         // lo's digits as ASCII, first digit in the low byte; zero-padded unless hi is 0
	n     int            // digits in v
	buf   [decBlock]byte // digits' scratch
}

// decBlock is the room put needs: hi's 16-byte block, then lo's four
// digits at hiLen ≤ 15.
const decBlock = 20

// digitPairs[i] is i's two decimal digits as ASCII, tens first in
// memory (little-endian).
var digitPairs = func() (t [100]uint16) {
	for i := range t {
		t[i] = uint16('0'+i/10) | uint16('0'+i%10)<<8
	}
	return t
}()

func (x *decimal) set(v int) {
	x.setHi(v / 10000)
	x.lo = v % 10000
	x.setLo()
}

// add adds n ≥ 0 to x, whose sum must still fit an int64.
func (x *decimal) add(n int) {
	x.lo += n
	if x.lo >= 10000 {
		x.setHi(x.hiVal + x.lo/10000)
		x.lo %= 10000
	}
	x.setLo()
}

func (x *decimal) setHi(h int) {
	var d [16]byte
	x.hiVal, x.hiLen = h, 0
	if h > 0 {
		x.hiLen = len(strconv.AppendInt(d[:0], int64(h), 10))
	}
	x.hi[0] = binary.LittleEndian.Uint64(d[0:])
	x.hi[1] = binary.LittleEndian.Uint64(d[8:])
}

// setLo derives loW and n from lo and hiLen.
func (x *decimal) setLo() {
	lo := uint(x.lo)
	x.loW = uint32(digitPairs[lo/100%100]) | uint32(digitPairs[lo%100])<<16
	x.n = x.hiLen + 4
	if x.hiLen == 0 {
		z := 3 // leading zeros of lo's four digits; "0" keeps one digit
		switch {
		case lo >= 1000:
			z = 0
		case lo >= 100:
			z = 1
		case lo >= 10:
			z = 2
		}
		x.loW >>= 8 * z
		x.n = 4 - z
	}
}

// put stores x's digits at the start of l, which must have room for
// decBlock bytes (those past the digits are left as junk for the next
// store to overwrite), and returns how many there are.
func (x *decimal) put(l []byte) int {
	l = l[:decBlock]
	binary.LittleEndian.PutUint64(l[0:], x.hi[0])
	binary.LittleEndian.PutUint64(l[8:], x.hi[1])
	binary.LittleEndian.PutUint32(l[x.hiLen&15:], x.loW) // hiLen ≤ 15; the mask drops the bounds check
	return x.n
}

func (x *decimal) digits() []byte { return x.buf[:x.put(x.buf[:])] }
