package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// client drives the daemon over loopback HTTP/1.1 with at most conns
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(addr string, conns int) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: "http://" + addr, hc: &http.Client{Transport: tr}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// opResult is the outcome of one operation.
type opResult struct {
	firstTok time.Time // first token byte; zero for refusals and empty streams
	done     time.Time // last summary or trailer byte
	err      error     // nil, a *mismatchError, or a transport/status failure
}

// firstReader stamps the first read that returns bytes.
type firstReader struct {
	r  io.Reader
	at *time.Time
}

func (f *firstReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	if n > 0 && f.at != nil && f.at.IsZero() {
		*f.at = time.Now()
	}
	return n, err
}

// statusError is an HTTP status the operation did not expect, other
// than a refusal the oracle disagrees with (that is a mismatch).
type statusError struct{ code int }

func (e *statusError) Error() string { return fmt.Sprintf("unexpected HTTP status %d", e.code) }

// send posts one leg and decodes its tokens into d as they arrive.
// first, when set, receives the arrival of the first response byte.
func (c *client) send(query string, body []byte, bin bool, d *digest, first *time.Time) (leg, error) {
	resp, err := c.post(query, body, bin)
	if err != nil {
		return leg{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		_, err := io.Copy(io.Discard, resp.Body)
		return leg{status: resp.StatusCode}, err
	}
	fr := &firstReader{r: resp.Body, at: first}
	var l leg
	if bin {
		l, err = decodeBin(fr, func() http.Header { return resp.Trailer }, d)
	} else {
		l, err = decodeNDJSON(fr, d)
	}
	l.status = resp.StatusCode
	return l, err
}

func (c *client) post(query string, body []byte, bin bool) (*http.Response, error) {
	return c.hc.Post(c.base+tokenizePath(query, bin), "application/octet-stream", bytes.NewReader(body))
}

// tokenizePath is the /tokenize request path for a source query.
func tokenizePath(query string, bin bool) string {
	p := "/tokenize?" + query
	if bin {
		p += "&format=bin"
	}
	return p
}

// do runs one operation and checks it against its oracle.
func (c *client) do(r *request) opResult {
	var res opResult
	res.err = c.run(r, &res.firstTok)
	res.done = time.Now()
	return res
}

func (c *client) run(r *request, first *time.Time) error {
	d := newDigest()
	if r.want.refuse {
		l, err := c.send(r.query, r.body, r.bin, &d, nil)
		switch {
		case err != nil:
			return err
		case l.status == http.StatusOK:
			return mismatch("unbounded grammar was served, want a 422 refusal")
		case l.status != http.StatusUnprocessableEntity:
			return &statusError{l.status}
		}
		return nil
	}
	legStatus := func(l leg) error {
		switch l.status {
		case http.StatusOK:
			return nil
		case http.StatusUnprocessableEntity:
			return mismatch("bounded grammar was refused")
		}
		return &statusError{l.status}
	}
	body, query := r.body, r.query
	if r.cut > 0 {
		l, err := c.send(r.query+"&hold=1", r.body[:r.cut], r.bin, &d, first)
		if err == nil {
			err = legStatus(l)
		}
		if err == nil {
			err = checkLeg(l, true)
		}
		if err != nil {
			return err
		}
		body, query = r.body[r.cut:], r.query+"&cursor="+l.cursor
	}
	l, err := c.send(query, body, r.bin, &d, first)
	if err == nil {
		err = legStatus(l)
	}
	if err == nil {
		err = checkLeg(l, false)
	}
	if err == nil {
		err = checkOp(r.want, d, l.rest)
	}
	if d.tokens == 0 {
		*first = time.Time{}
	}
	return err
}

// phase accumulates one load phase's outcomes.
type phase struct {
	mu         sync.Mutex
	attempted  int
	failed     int
	mismatches int
	firstErr   error
	ok         int   // operations that completed and matched
	bytes      int64 // their body bytes
	lat        []float64
	first      []float64
	late       []float64
	wall       time.Duration
}

// record folds in one operation. due is when an open-loop operation
// was scheduled (zero in the closed loop).
func (p *phase) record(r *request, res opResult, due time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempted++
	if res.err != nil {
		p.failed++
		var mm *mismatchError
		if errors.As(res.err, &mm) {
			p.mismatches++
		}
		if p.firstErr == nil {
			p.firstErr = res.err
		}
		return
	}
	p.ok++
	p.bytes += int64(len(r.body))
	if !due.IsZero() {
		p.lat = append(p.lat, ms(res.done.Sub(due)))
		if !res.firstTok.IsZero() {
			p.first = append(p.first, ms(res.firstTok.Sub(due)))
		}
	}
}

// merge folds q into p.
func (p *phase) merge(q *phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.mismatches += q.mismatches
	if p.firstErr == nil {
		p.firstErr = q.firstErr
	}
	p.ok += q.ok
	p.bytes += q.bytes
	p.lat = append(p.lat, q.lat...)
	p.first = append(p.first, q.first...)
	p.late = append(p.late, q.late...)
	p.wall += q.wall
}

// closedLoop runs conns clients, each sending its next request as soon
// as the previous one completes, until dur has passed. Requests cycle
// through reqs starting at offset. The phase's wall time runs to the
// last completion, so every operation it counts lies inside it.
func closedLoop(c *client, reqs []*request, offset, conns int, dur time.Duration, tr *tracer) *phase {
	p := &phase{}
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				r := reqs[(offset+i)%len(reqs)]
				sent := time.Now()
				res := c.do(r)
				tr.span("loadgen.op", 0, int64(i), sent, res.done)
				p.record(r, res, time.Time{})
			}
		}()
	}
	wg.Wait()
	p.wall = time.Since(start)
	return p
}

// openLoop sends requests on a fixed schedule of rate per second for
// dur, over at most conns connections. Latency runs from when each
// request was due, so a stall also charges the requests queued behind
// it; late records how far behind schedule the generator itself
// dispatched.
func openLoop(c *client, reqs []*request, offset, conns int, rate float64, dur time.Duration, tr *tracer) *phase {
	type job struct {
		i   int
		due time.Time
	}
	n := int(rate * dur.Seconds())
	p := &phase{}
	jobs := make(chan job, n) // sized to every send, so the schedule never blocks
	giveUp := time.Now().Add(dur + 60*time.Second)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				r := reqs[(offset+j.i)%len(reqs)]
				if time.Now().After(giveUp) {
					p.record(r, opResult{err: errors.New("open loop backlog exceeded 60s")}, j.due)
					continue
				}
				sent := time.Now()
				res := c.do(r)
				tr.span("loadgen.queue", 0, int64(j.i), j.due, sent)
				tr.span("loadgen.op", 0, int64(j.i), sent, res.done)
				p.record(r, res, j.due)
			}
		}()
	}
	start := time.Now().Add(5 * time.Millisecond)
	gap := time.Duration(float64(time.Second) / rate)
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		time.Sleep(time.Until(due))
		p.late = append(p.late, ms(time.Since(due)))
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	p.wall = dur
	return p
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
