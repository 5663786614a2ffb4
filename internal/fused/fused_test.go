package fused_test

import (
	"testing"

	"streamtok/internal/fused"
	"streamtok/internal/tepath"
	"streamtok/internal/tokdfa"
)

// TestBuildNilTable: without an eager TeDFA (tepath.Build refused it as
// too large) Build returns nil for k ≥ 2, so callers fall back to the
// lazy loop; for k ≤ 1 the table is never read and Build always succeeds.
func TestBuildNilTable(t *testing.T) {
	g := tokdfa.MustParseGrammar(`[0-9]+(\.[0-9]+)?`, `\.`, ` `)
	m := tokdfa.MustCompile(g, tokdfa.Options{Minimize: true})
	if e := fused.Build(m, 2, nil, fused.Options{}); e != nil {
		t.Fatalf("Build(k=2, te=nil) = %s engine, want nil", e.ModeName())
	}
	te, err := tepath.Build(m, 2, tepath.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if e := fused.Build(m, 2, te, fused.Options{}); e == nil || e.ModeName() != "fused-general" {
		t.Fatalf("Build(k=2) with an eager table did not give fused-general")
	}
	for k, want := range []string{"fused-k0", "fused-k1"} {
		if e := fused.Build(m, k, nil, fused.Options{}); e == nil || e.ModeName() != want {
			t.Fatalf("Build(k=%d, te=nil) did not give %s", k, want)
		}
	}
}
