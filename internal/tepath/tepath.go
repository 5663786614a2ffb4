// Package tepath implements the token-extension machinery of §5.2: the
// token-extension NFA TeNFA(A) built from the token-extension paths of a
// tokenization DFA A (compactly, without enumerating paths), the
// token-extension DFA TeDFA(A) obtained by the modified ("restarting")
// powerset construction, and the token-maximality table T[q][S].
//
// A token-extension path is q →a1→ q1 →a2→ ... →ak→ qk with q and qk final
// and q1..q(k-1) non-final, k ≤ K = TkDist(r̄). TeNFA(A) recognizes
// { label(π)·Σ^(K-k) : π a token-extension path of length k }, all strings
// of length exactly K, and labels each accepting run with fst(π).
//
// A TeNFA state is (q, p, d) — a path from final q currently at state p
// after d symbols, all intermediates non-final — or (q, done, d) — a path
// from q completed at some length ≤ d and padded with Σ. States carry the
// depth d because the restarting powerset construction mixes path prefixes
// of different ages in one powerstate; a state is accepting iff it is
// (q, done, K).
package tepath

import (
	"errors"
	"fmt"
	"sort"

	"streamtok/internal/tokdfa"
)

// Limits bounds the construction so pathological grammars fail fast
// instead of exhausting memory.
type Limits struct {
	// MaxNFAStates bounds the TeNFA size (default 1<<20).
	MaxNFAStates int
	// MaxDFAStates bounds the TeDFA size (default 1<<18).
	MaxDFAStates int
}

func (l Limits) withDefaults() Limits {
	if l.MaxNFAStates == 0 {
		l.MaxNFAStates = 1 << 20
	}
	if l.MaxDFAStates == 0 {
		l.MaxDFAStates = 1 << 18
	}
	return l
}

// ErrTooLarge is returned when the construction exceeds its limits.
var ErrTooLarge = errors.New("tepath: token-extension automaton exceeds size limits")

// Table is the compiled token-extension DFA B = TeDFA(A) plus the
// token-maximality table T. It is immutable after Build and safe for
// concurrent use.
type Table struct {
	// K is the maximum token neighbor distance the table was built for.
	K int
	// Start is the initial TeDFA state (the powerstate I).
	Start int
	// trans is the flattened TeDFA transition table, one column per byte
	// class of the tokenization DFA: trans[s*nc+int(classOf[b])]. The
	// TeNFA's successors are a pure function of δ_A, so A's byte-class
	// partition is exact for B as well and the two machines share one
	// class map.
	trans []int32
	// classOf is a copy of the tokenization DFA's byte-class map.
	classOf [256]uint8
	// nc is the class count (compressed row width).
	nc int
	// extendable[S] is a bitset over A's states: bit q is set iff the
	// powerstate S contains an accepting TeNFA state labeled q, i.e.
	// the token ending at A-state q has an extension within the last K
	// symbols B has consumed. T[q][S] = q final ∧ ¬extendable[S][q].
	extendable [][]uint64
	// emitOK[S] fuses the finality test into the table: bit q is set
	// iff q is final and not extendable in S (internal/fused builds its
	// pair action words from it).
	emitOK [][]uint64
	words  int // words per bitset

	// machine the table was built for (used by the EOF drain check).
	machine *tokdfa.Machine
}

// NumStates returns the TeDFA size.
func (t *Table) NumStates() int { return len(t.extendable) }

// Bytes returns the memory every resident array occupies: compressed
// transition words, both maximality bitsets (extendable and the fused
// emitOK mirror), and the table's copy of the byte-class map (for the RQ6
// and certificate accounting).
func (t *Table) Bytes() int {
	return len(t.trans)*4 + 2*len(t.extendable)*t.words*8 + 256
}

// NumClasses returns the byte-class count shared with the tokenization
// DFA.
func (t *Table) NumClasses() int { return t.nc }

// Dump exposes the raw TeDFA tables for code generators: the flattened
// class-compressed transition table (numClasses columns per state, indexed
// by the tokenization DFA's byte classes) and, per state, the fused
// emit-OK bitset over the tokenization DFA's states (words uint64s per
// state).
func (t *Table) Dump() (trans []int32, numClasses int, emitOK [][]uint64, words int) {
	return t.trans, t.nc, t.emitOK, t.words
}

// Step advances the TeDFA: δ_B(S, b).
func (t *Table) Step(s int, b byte) int {
	return int(t.trans[s*t.nc+int(t.classOf[b])])
}

// StepClass advances the TeDFA on any byte of class c.
func (t *Table) StepClass(s, c int) int { return int(t.trans[s*t.nc+c]) }

// Maximal implements the token-maximality table lookup T[q][S]: it reports
// whether a token that left the tokenization DFA in final state q is
// maximal given that the token-extension DFA, K symbols ahead, is in
// powerstate S. The caller must ensure q is final.
func (t *Table) Maximal(q, s int) bool {
	return t.extendable[s][q>>6]&(1<<(q&63)) == 0
}

// ExtendsWithinTail reports whether the token ending at final state q can
// be extended to a longer token using only the bytes of tail (the
// remainder of a finite stream, len(tail) < K). Used to drain the last
// positions at end of stream, where B has run out of lookahead.
func (t *Table) ExtendsWithinTail(q int, tail []byte) bool {
	d := t.machine.DFA
	p := q
	for _, b := range tail {
		p = d.Step(p, b)
		if d.IsFinal(p) {
			return true
		}
		if t.machine.IsDead(p) {
			return false
		}
	}
	return false
}

// teNFA is the intermediate token-extension NFA. Every state has at most
// one successor per byte (nondeterminism enters only through the restart
// union with I), so it is stored as a flat successor table, one column per
// byte class of the tokenization DFA (the successor is a pure function of
// δ_A, so bytes A cannot distinguish are interchangeable here too).
type teNFA struct {
	// succ[s*nc+c] is the successor of state s on any byte of class c,
	// or -1.
	succ []int32
	// nc is the byte-class count of the tokenization DFA.
	nc int
	// acceptLabel[s] is Λ(s) = fst(π) for accepting states (depth K,
	// done), or -1.
	acceptLabel []int32
	// initial states (q, q, 0) for each final q reachable by Σ⁺.
	initial []int32
}

// Build constructs the token-extension DFA and maximality table for a
// machine whose grammar has TkDist = k (as computed by the static
// analysis). k must be ≥ 1; grammars with k == 0 need no lookahead at all
// and are handled by the tokenizers directly.
func Build(m *tokdfa.Machine, k int, limits Limits) (*Table, error) {
	if k < 1 {
		return nil, fmt.Errorf("tepath: Build requires K >= 1, got %d", k)
	}
	limits = limits.withDefaults()
	nfa, err := buildTeNFA(m, k, limits)
	if err != nil {
		return nil, err
	}
	return determinizeRestarting(m, k, nfa, limits)
}

// buildTeNFA lazily enumerates the reachable (q, p, d) and (q, done, d)
// states.
func buildTeNFA(m *tokdfa.Machine, k int, limits Limits) (*teNFA, error) {
	d := m.DFA
	reach := d.ReachableNonEmpty()

	type key struct {
		q   int32 // label: the final state the path starts from
		p   int32 // current DFA state, or -1 for done
		dep int32 // symbols consumed
	}
	ids := map[key]int32{}
	var keys []key
	intern := func(kk key) (int32, error) {
		if id, ok := ids[kk]; ok {
			return id, nil
		}
		if len(keys) >= limits.MaxNFAStates {
			return 0, ErrTooLarge
		}
		id := int32(len(keys))
		ids[kk] = id
		keys = append(keys, kk)
		return id, nil
	}

	var initial []int32
	for q := 0; q < d.NumStates(); q++ {
		if reach[q] && d.IsFinal(q) {
			id, err := intern(key{int32(q), int32(q), 0})
			if err != nil {
				return nil, err
			}
			initial = append(initial, id)
		}
	}

	// BFS over reachable TeNFA states, filling the successor table one
	// class column at a time.
	nc := d.NumClasses()
	var succ []int32
	ensure := func(n int) {
		for len(succ) < n*nc {
			succ = append(succ, -1)
		}
	}
	for s := 0; s < len(keys); s++ {
		ensure(s + 1)
		kk := keys[s]
		if int(kk.dep) == k {
			continue // no successors at full depth
		}
		if kk.p < 0 {
			// done: pad with any byte.
			t, err := intern(key{kk.q, -1, kk.dep + 1})
			if err != nil {
				return nil, err
			}
			for c := 0; c < nc; c++ {
				succ[s*nc+c] = t
			}
			continue
		}
		for c := 0; c < nc; c++ {
			nxt := d.StepClass(int(kk.p), c)
			var tk key
			switch {
			case d.IsFinal(nxt):
				tk = key{kk.q, -1, kk.dep + 1} // path completes here
			case m.IsDead(nxt):
				continue // no extension can pass a dead state
			default:
				tk = key{kk.q, int32(nxt), kk.dep + 1}
			}
			t, err := intern(tk)
			if err != nil {
				return nil, err
			}
			succ[s*nc+c] = t
		}
	}
	ensure(len(keys))

	accept := make([]int32, len(keys))
	for s, kk := range keys {
		accept[s] = -1
		if kk.p < 0 && int(kk.dep) == k {
			accept[s] = kk.q
		}
	}
	return &teNFA{succ: succ, nc: nc, acceptLabel: accept, initial: initial}, nil
}

// determinizeRestarting applies the modified powerset construction:
// δ_B(S, b) = {succ(s, b) : s ∈ S} ∪ I, so the NFA "restarts" at every
// step (Example 19).
func determinizeRestarting(m *tokdfa.Machine, k int, nfa *teNFA, limits Limits) (*Table, error) {
	words := (m.DFA.NumStates() + 63) / 64

	finals := make([]uint64, words)
	for q := 0; q < m.DFA.NumStates(); q++ {
		if m.DFA.IsFinal(q) {
			finals[q>>6] |= 1 << (q & 63)
		}
	}

	ids := map[string]int32{}
	var sets [][]int32
	var extendable [][]uint64
	var emitOK [][]uint64

	intern := func(set []int32) (int32, error) {
		kkey := setKey(set)
		if id, ok := ids[kkey]; ok {
			return id, nil
		}
		if len(sets) >= limits.MaxDFAStates {
			return 0, ErrTooLarge
		}
		id := int32(len(sets))
		ids[kkey] = id
		sets = append(sets, set)
		bits := make([]uint64, words)
		for _, s := range set {
			if lbl := nfa.acceptLabel[s]; lbl >= 0 {
				bits[lbl>>6] |= 1 << (lbl & 63)
			}
		}
		extendable = append(extendable, bits)
		ok := make([]uint64, words)
		for w := range ok {
			ok[w] = finals[w] &^ bits[w]
		}
		emitOK = append(emitOK, ok)
		return id, nil
	}

	init := append([]int32(nil), nfa.initial...)
	sort.Slice(init, func(i, j int) bool { return init[i] < init[j] })
	startID, err := intern(init)
	if err != nil {
		return nil, err
	}

	nc := nfa.nc
	var trans []int32
	seen := map[int32]bool{}
	for s := 0; s < len(sets); s++ {
		row := make([]int32, nc)
		set := sets[s]
		for c := 0; c < nc; c++ {
			for k := range seen {
				delete(seen, k)
			}
			next := make([]int32, 0, len(set)+len(init))
			for _, st := range set {
				t := nfa.succ[int(st)*nc+c]
				if t >= 0 && !seen[t] {
					seen[t] = true
					next = append(next, t)
				}
			}
			for _, st := range init {
				if !seen[st] {
					seen[st] = true
					next = append(next, st)
				}
			}
			sort.Slice(next, func(i, j int) bool { return next[i] < next[j] })
			id, err := intern(next)
			if err != nil {
				return nil, err
			}
			row[c] = id
		}
		trans = append(trans, row...)
	}

	return &Table{
		K:          k,
		Start:      int(startID),
		trans:      trans,
		classOf:    m.DFA.ClassOf,
		nc:         nc,
		extendable: extendable,
		emitOK:     emitOK,
		words:      words,
		machine:    m,
	}, nil
}

func setKey(set []int32) string {
	buf := make([]byte, len(set)*4)
	for i, s := range set {
		buf[i*4] = byte(s)
		buf[i*4+1] = byte(s >> 8)
		buf[i*4+2] = byte(s >> 16)
		buf[i*4+3] = byte(s >> 24)
	}
	return string(buf)
}
