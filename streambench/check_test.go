package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"strings"
	"testing"

	"streamtok/internal/server"
	"streamtok/internal/workload"
)

// corrupter sits between the client and a real server and damages the
// responses (or requests) that match.
type corrupter struct {
	h       http.Handler
	match   func(*http.Request) bool
	request func(*http.Request)         // rewrites the request, if set
	flip    func(body []byte, bin bool) // damages the response body, if set
}

func (c *corrupter) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !c.match(r) {
		c.h.ServeHTTP(w, r)
		return
	}
	if c.request != nil {
		c.request(r)
	}
	if c.flip == nil {
		c.h.ServeHTTP(w, r)
		return
	}
	cw := &captureWriter{}
	cw.reset()
	c.h.ServeHTTP(cw, r)
	bin := r.URL.Query().Get("format") == "bin"
	body := cw.buf.Bytes()
	c.flip(body, bin)
	trailers := strings.Split(cw.h.Get("Trailer"), ", ")
	for k, v := range cw.h {
		if k != "Trailer" && !contains(trailers, k) {
			w.Header()[k] = v
		}
	}
	w.WriteHeader(cw.code)
	w.Write(body)
	for _, k := range trailers {
		if k != "" {
			w.Header().Set(http.TrailerPrefix+k, cw.h.Get(k))
		}
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

// flipToken changes the rule of the third token: in the NDJSON line's
// "rule" digits, or in the binary record's rule field.
func flipToken(body []byte, bin bool) {
	if bin {
		body[2*24+16] ^= 1
		return
	}
	lines := bytes.SplitAfterN(body, []byte("\n"), 4)
	line := lines[2]
	i := bytes.Index(line, []byte(`"rule":`)) + len(`"rule":`)
	line[i] = '0' + (line[i]-'0'+1)%10
}

// logRequest builds a log-grammar request with its reference oracle.
func logRequest(t *testing.T, bin bool, cut int) *request {
	t.Helper()
	src, err := catalogSource("log")
	if err != nil {
		t.Fatal(err)
	}
	body, err := workload.Log("apache", 7, 48<<10)
	if err != nil {
		t.Fatal(err)
	}
	return &request{query: "grammar=log", body: body, bin: bin, cut: cut, src: src,
		want: grammarOracle(src.machine, body)}
}

func newCheckedServer(t *testing.T, c *corrupter) *client {
	t.Helper()
	reg := server.NewRegistry(0)
	srv := server.New(server.Config{Registry: reg})
	t.Cleanup(srv.Close)
	c.h = srv.Handler()
	ts := httptest.NewServer(c)
	t.Cleanup(ts.Close)
	cl := newClient(strings.TrimPrefix(ts.URL, "http://"), 1)
	t.Cleanup(cl.close)
	return cl
}

func wantMismatch(t *testing.T, err error) {
	t.Helper()
	var mm *mismatchError
	if !errors.As(err, &mm) {
		t.Fatalf("checker did not catch the corruption: err = %v", err)
	}
}

func never(*http.Request) bool  { return false }
func always(*http.Request) bool { return true }

func TestCheckerPassesCleanResponses(t *testing.T) {
	cl := newCheckedServer(t, &corrupter{match: never})
	for _, bin := range []bool{false, true} {
		for _, cut := range []int{0, 20011} {
			if res := cl.do(logRequest(t, bin, cut)); res.err != nil {
				t.Errorf("bin=%v cut=%d: clean response rejected: %v", bin, cut, res.err)
			}
		}
	}
}

func TestCheckerCatchesFlippedToken(t *testing.T) {
	cl := newCheckedServer(t, &corrupter{match: always, flip: flipToken})
	for _, bin := range []bool{false, true} {
		wantMismatch(t, cl.do(logRequest(t, bin, 0)).err)
	}
}

func TestCheckerCatchesCorruptedCursorLeg(t *testing.T) {
	resumeLeg := func(r *http.Request) bool { return r.URL.Query().Get("cursor") != "" }
	for _, bin := range []bool{false, true} {
		// A token flipped in the resumed leg's response.
		cl := newCheckedServer(t, &corrupter{match: resumeLeg, flip: flipToken})
		wantMismatch(t, cl.do(logRequest(t, bin, 20011)).err)

		// A cursor damaged on its way back: the daemon refuses it, and a
		// refused bounded stream is a mismatch.
		cl = newCheckedServer(t, &corrupter{match: resumeLeg, request: func(r *http.Request) {
			q := r.URL.Query()
			c := []byte(q.Get("cursor"))
			if c[len(c)/2] == 'A' {
				c[len(c)/2] = 'B'
			} else {
				c[len(c)/2] = 'A'
			}
			q.Set("cursor", string(c))
			r.URL.RawQuery = q.Encode()
		}})
		wantMismatch(t, cl.do(logRequest(t, bin, 20011)).err)
	}
}

func TestCheckerCatchesServedUnboundedGrammar(t *testing.T) {
	cl := newCheckedServer(t, &corrupter{match: never})
	// A bounded grammar sent with an oracle that expects a refusal.
	r := &request{query: url.Values{"rule": {"[0-9]+", "[ ]+"}}.Encode(), body: []byte("12 34"),
		want: oracle{refuse: true}}
	wantMismatch(t, cl.do(r).err)
}

// TestBenchmarkJSONMatchesHarness keeps BENCHMARK.json's metric names,
// units and workloads in step with what the harness reports. The
// harness may run workloads BENCHMARK.json does not list.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	type nu = struct{ name, unit string }
	check := func(kind string, got []struct{ Name, Unit string }, want []nu) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, harness reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], harness %s [%s]", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	var e2e, layer []nu
	for _, m := range endToEnd {
		e2e = append(e2e, nu{m.name, m.unit})
	}
	for _, m := range perLayer {
		layer = append(layer, nu{m.name, m.unit})
	}
	check("end_to_end", b.EndToEnd, e2e)
	check("per_layer", b.PerLayer, layer)
	for _, w := range b.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %s is not in the harness", w.Name)
		}
	}
}
