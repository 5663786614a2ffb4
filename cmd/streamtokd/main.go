// Command streamtokd serves tokenization over HTTP: POST a stream to
// /tokenize and get the tokens back as they are found, as NDJSON lines
// or fixed binary records, under per-request deadlines and byte limits
// with load shedding and graceful drain.
//
// Usage:
//
//	streamtokd                                    # serve on :8321
//	streamtokd -addr :9000 -preload json,csv      # pre-compile catalog grammars
//	streamtokd -machines ./machines               # pin precompiled machines (tnd -emit)
//	streamtokd -vocab cl100k.tiktoken             # pin a BPE vocabulary for ?vocab=cl100k
//	streamtokd -vocab-dir ./vocabs                # pin every vocabulary in a directory
//	streamtokd -max-concurrent 32 -deadline 10s   # tune admission control
//	streamtokd -mem-budget 4M                     # cap certified resident table bytes
//	streamtokd -debug-addr 127.0.0.1:6060         # serve net/http/pprof on its own listener
//
//	curl -s --data-binary @doc.json 'localhost:8321/tokenize?grammar=json'
//	curl -sN -T - 'localhost:8321/tokenize?rule=%5B0-9%5D%2B&rule=%5B+%5D%2B' < nums.txt
//
// Endpoints: /tokenize (POST), /metrics (JSON), /statusz (text),
// /healthz, /debug/vars (expvar). With -debug-addr, /debug/pprof/ is
// served on that address alone, never on -addr. On SIGTERM or SIGINT
// the daemon stops accepting new streams, lets in-flight ones finish
// (up to -drain-timeout), writes a final metrics snapshot to stderr,
// and exits 0 on a clean drain.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"streamtok/internal/server"
)

func main() {
	addr := flag.String("addr", ":8321", "listen address")
	preload := flag.String("preload", "", "comma-separated catalog grammars to compile at startup")
	machines := flag.String("machines", "", "directory of precompiled machine files (tnd -emit) to pin")
	vocabFiles := flag.String("vocab", "", "comma-separated BPE vocabulary files (tiktoken or tokenizer.json) to pin for ?vocab=")
	vocabDir := flag.String("vocab-dir", "", "directory of BPE vocabulary files to pin")
	maxConcurrent := flag.Int("max-concurrent", 0, "max tokenize streams in flight (0 = 4×GOMAXPROCS)")
	maxBytes := flag.Int64("max-bytes", 0, "per-request body limit in bytes (0 = 64MiB)")
	deadline := flag.Duration("deadline", 0, "per-request wall-time limit (0 = 30s)")
	retryAfter := flag.Duration("retry-after", 0, "Retry-After hint on 429/503 (0 = 1s)")
	registryCap := flag.Int("registry-cap", 0, "compiled-grammar cache capacity (0 = 64)")
	noAdhoc := flag.Bool("no-adhoc", false, "refuse ?rule= compile-on-demand grammars")
	memBudget := flag.String("mem-budget", "", "cap on certified resident table bytes across grammars, e.g. 4M or 256K (empty = unlimited)")
	fusedBudget := flag.String("fused-budget", "", "per-grammar cap on the K>=2 fused pair tables, e.g. 4M (empty = 16M default; over-budget K>=2 grammars serve from the lazy TeDFA loop, K<=1 grammars always stay fused)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max wait for in-flight streams on shutdown")
	debugAddr := flag.String("debug-addr", "", "listen address for net/http/pprof, e.g. 127.0.0.1:6060 (empty = off; never served on -addr)")
	flag.Parse()
	logger := log.New(os.Stderr, "streamtokd: ", log.LstdFlags)

	reg := server.NewRegistry(*registryCap)
	if *memBudget != "" {
		budget, err := parseBytes(*memBudget)
		if err != nil {
			logger.Fatalf("-mem-budget: %v", err)
		}
		reg.SetMemBudget(budget)
		logger.Printf("memory budget: %d B of certified resident tables", budget)
	}
	if *fusedBudget != "" {
		budget, err := parseBytes(*fusedBudget)
		if err != nil {
			logger.Fatalf("-fused-budget: %v", err)
		}
		reg.SetFusedBudget(int(budget))
		logger.Printf("fused table budget: %d B per grammar", budget)
	}
	if *machines != "" {
		names, err := reg.LoadMachineDir(*machines)
		if err != nil {
			logger.Fatalf("loading machines from %s: %v", *machines, err)
		}
		logger.Printf("pinned %d machine grammars: %s", len(names), strings.Join(names, ", "))
	}
	if *vocabDir != "" {
		names, err := reg.LoadVocabDir(*vocabDir)
		if err != nil {
			logger.Fatalf("loading vocabularies from %s: %v", *vocabDir, err)
		}
		logger.Printf("pinned %d vocabularies: %s", len(names), strings.Join(names, ", "))
	}
	for _, path := range splitList(*vocabFiles) {
		ent, err := reg.LoadVocab(path)
		if err != nil {
			logger.Fatalf("loading vocabulary %s: %v", path, err)
		}
		logger.Printf("pinned vocabulary %s (%d tokens)", ent.Name, ent.Vocab.Size())
	}
	for _, name := range splitList(*preload) {
		if _, err := reg.Lookup(name); err != nil {
			logger.Fatalf("preloading grammar %s: %v", name, err)
		}
	}

	s := server.New(server.Config{
		Registry:      reg,
		MaxBodyBytes:  *maxBytes,
		Deadline:      *deadline,
		MaxConcurrent: *maxConcurrent,
		RetryAfter:    *retryAfter,
		DisableAdhoc:  *noAdhoc,
	})
	s.PublishExpvar("streamtokd")

	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/debug/vars", http.DefaultServeMux) // expvar's handler
	hs := &http.Server{Addr: *addr, Handler: mux}

	errc := make(chan error, 1)
	go func() {
		logger.Printf("listening on %s", *addr)
		errc <- hs.ListenAndServe()
	}()
	if *debugAddr != "" {
		ds, err := serveDebug(*debugAddr)
		if err != nil {
			logger.Fatalf("-debug-addr: %v", err)
		}
		defer ds.Close()
		logger.Printf("pprof listening on %s", *debugAddr)
	}

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	select {
	case err := <-errc:
		logger.Fatalf("serve: %v", err)
	case sig := <-sigc:
		logger.Printf("%s: draining (up to %s, %d streams in flight)", sig, *drainTimeout, s.InFlight())
	}

	// Drain: stop admitting (healthz and tokenize go 503 so load
	// balancers can see it), wait for in-flight streams, and only then
	// close the listener and remaining connections. Shutdown must come
	// after the wait — it closes the listener immediately, which would
	// turn the 503 window into connection-refused.
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	final, drainErr := s.Drain(ctx)
	shutdownErr := hs.Shutdown(ctx)
	s.Close() // stop the shard workers once no stream can arrive

	// The final snapshot is the last word on what this process served;
	// emit it even when the drain timed out, so nothing is lost.
	snap, err := json.Marshal(final)
	if err != nil {
		logger.Fatalf("final snapshot: %v", err)
	}
	fmt.Fprintln(os.Stderr, string(snap))

	if drainErr != nil || (shutdownErr != nil && !errors.Is(shutdownErr, context.DeadlineExceeded)) {
		logger.Printf("drain incomplete: %d streams cut (shutdown: %v, drain: %v)",
			s.InFlight(), shutdownErr, drainErr)
		os.Exit(1)
	}
	logger.Printf("drained clean: %d streams served, %d tokens out", final.OK, final.TokensOut)
}

// serveDebug serves the net/http/pprof handlers on their own listener.
// They go on a mux of their own: the public mux routes only
// /debug/vars to http.DefaultServeMux, so the handlers net/http/pprof
// registers there on import are not reachable through -addr.
func serveDebug(addr string) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ds := &http.Server{Handler: mux}
	go ds.Serve(ln) // returns when main closes ds
	return ds, nil
}

// parseBytes reads a byte count with an optional K/M/G suffix (powers
// of two, case-insensitive): "256K" = 262144, "4M" = 4194304.
func parseBytes(s string) (int64, error) {
	mult := int64(1)
	switch {
	case strings.HasSuffix(s, "K"), strings.HasSuffix(s, "k"):
		mult, s = 1<<10, s[:len(s)-1]
	case strings.HasSuffix(s, "M"), strings.HasSuffix(s, "m"):
		mult, s = 1<<20, s[:len(s)-1]
	case strings.HasSuffix(s, "G"), strings.HasSuffix(s, "g"):
		mult, s = 1<<30, s[:len(s)-1]
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("want a byte count like 1048576, 256K, 4M, or 1G, got %q", s)
	}
	return n * mult, nil
}

func splitList(s string) []string {
	var out []string
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f != "" {
			out = append(out, f)
		}
	}
	return out
}
