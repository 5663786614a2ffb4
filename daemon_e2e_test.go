package streamtok_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"os/exec"
	"strings"
	"syscall"
	"testing"
	"time"
)

// TestDaemonE2E drives the streamtokd binary over real TCP: start it,
// stream a chunked body and read tokens back, check /metrics, then
// SIGTERM it mid-stream and verify the graceful-drain contract — the
// in-flight stream runs to its done summary, new streams get 503, the
// process exits 0, and the final snapshot it logs reconciles exactly
// with what the client received.
func TestDaemonE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "streamtokd")
	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-preload", "json", "-drain-timeout", "30s")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	base := "http://" + addr

	// Wait for the daemon to come up.
	waitE2E(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	// Stream a body in trickled chunks so the daemon is mid-stream for
	// long enough to signal it.
	const chunks = 20
	chunk := strings.Repeat(`{"k": [1, 2, 3]} `, 8)
	pr, pw := io.Pipe()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < chunks; i++ {
			if _, err := pw.Write([]byte(chunk)); err != nil {
				return
			}
			time.Sleep(20 * time.Millisecond)
		}
		pw.Close()
	}()
	resp, err := http.Post(base+"/tokenize?grammar=json", "", pr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Read the streamed NDJSON; after the first token line, check
	// /metrics shows the live stream, SIGTERM the daemon, and verify it
	// refuses new streams while ours keeps flowing.
	var tokens uint64
	var summary map[string]any
	signalled := false
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if line["done"] != nil || line["error"] != nil {
			summary = line
			continue
		}
		tokens++
		if !signalled {
			signalled = true
			assertLiveMetrics(t, base)
			if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			assertDrainRefuses(t, base)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	<-writerDone
	if !signalled {
		t.Fatal("no token lines streamed before the body finished")
	}
	if summary == nil || summary["done"] != true {
		t.Fatalf("stream cut by drain, summary = %v", summary)
	}
	if got := uint64(summary["tokens"].(float64)); got != tokens {
		t.Fatalf("summary says %d tokens, client received %d", got, tokens)
	}

	// The daemon exits 0 once the drain completes...
	exited := make(chan error, 1)
	go func() { exited <- cmd.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("daemon exit: %v\n%s", err, stderr.String())
		}
	case <-time.After(30 * time.Second):
		t.Fatalf("daemon did not exit after drain\n%s", stderr.String())
	}

	// ...and its final snapshot reconciles with the client: every token
	// the server confirmed was received, none lost to the drain.
	snap := finalSnapshot(t, stderr.String())
	if got := uint64(snap["tokens_out"].(float64)); got != tokens {
		t.Errorf("final snapshot counts %d tokens out, client received %d", got, tokens)
	}
	if ok := snap["ok"].(float64); ok != 1 {
		t.Errorf("final snapshot ok = %v, want 1", ok)
	}
	if unavail := snap["unavailable"].(float64); unavail < 1 {
		t.Errorf("final snapshot unavailable = %v, want the refused drain-time request", unavail)
	}
}

// TestDaemonMemBudget drives the -mem-budget flag end to end: a daemon
// with a budget smaller than any catalog grammar's certified tables
// refuses to serve it with a 422 carrying the certificate, and /statusz
// reports the budget and the reject.
func TestDaemonMemBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "streamtokd")
	addr := freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-mem-budget", "8K")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	base := "http://" + addr
	waitE2E(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	})

	resp, err := http.Post(base+"/tokenize?grammar=json", "", strings.NewReader(`{"a": 1}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422; body:\n%s\nstderr:\n%s", resp.StatusCode, body, stderr.String())
	}
	for _, want := range []string{"mem-budget", "certificate:", "tables"} {
		if !strings.Contains(string(body), want) {
			t.Errorf("422 body missing %q:\n%s", want, body)
		}
	}

	resp, err = http.Get(base + "/statusz")
	if err != nil {
		t.Fatal(err)
	}
	statusz, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{"budget:", "8192 B", "1 budget rejects"} {
		if !strings.Contains(string(statusz), want) {
			t.Errorf("/statusz missing %q:\n%s", want, statusz)
		}
	}
}

// TestDaemonDebugAddr drives -debug-addr end to end: /debug/pprof/
// answers on the debug listener and is a 404 on the public one.
func TestDaemonDebugAddr(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	bin := buildTool(t, "streamtokd")
	addr, debugAddr := freeAddr(t), freeAddr(t)
	cmd := exec.Command(bin, "-addr", addr, "-debug-addr", debugAddr)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Signal(syscall.SIGTERM)
		cmd.Wait()
	}()
	status := func(url string) int {
		resp, err := http.Get(url)
		if err != nil {
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	waitE2E(t, func() bool {
		return status("http://"+addr+"/healthz") == http.StatusOK && status("http://"+debugAddr+"/debug/pprof/") != 0
	})
	if got := status("http://" + debugAddr + "/debug/pprof/"); got != http.StatusOK {
		t.Errorf("debug listener /debug/pprof/ = %d, want 200\n%s", got, stderr.String())
	}
	if got := status("http://" + debugAddr + "/debug/pprof/goroutine?debug=1"); got != http.StatusOK {
		t.Errorf("debug listener goroutine profile = %d, want 200", got)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/goroutine?debug=1"} {
		if got := status("http://" + addr + path); got != http.StatusNotFound {
			t.Errorf("public listener %s = %d, want 404", path, got)
		}
	}
}

// assertLiveMetrics checks /metrics mid-stream: one stream in flight on
// the json grammar.
func assertLiveMetrics(t *testing.T, base string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m["inflight"].(float64) != 1 {
		t.Errorf("mid-stream inflight = %v, want 1", m["inflight"])
	}
	grammars, _ := m["grammars"].([]any)
	found := false
	for _, g := range grammars {
		if g.(map[string]any)["name"] == "json" {
			found = true
		}
	}
	if !found {
		t.Errorf("json grammar missing from /metrics: %v", grammars)
	}
}

// assertDrainRefuses checks that a draining daemon sheds new streams
// with 503 + Retry-After and reports draining on /healthz.
func assertDrainRefuses(t *testing.T, base string) {
	t.Helper()
	waitE2E(t, func() bool {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusServiceUnavailable
	})
	resp, err := http.Post(base+"/tokenize?grammar=json", "", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("tokenize during drain: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 during drain missing Retry-After")
	}
}

// finalSnapshot extracts the JSON metrics document streamtokd writes to
// stderr during shutdown.
func finalSnapshot(t *testing.T, stderr string) map[string]any {
	t.Helper()
	for _, line := range strings.Split(stderr, "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var snap map[string]any
		if err := json.Unmarshal([]byte(line), &snap); err == nil {
			return snap
		}
	}
	t.Fatalf("no final snapshot in daemon stderr:\n%s", stderr)
	return nil
}

func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

func waitE2E(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never became true")
		}
		time.Sleep(5 * time.Millisecond)
	}
}
