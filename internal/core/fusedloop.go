package core

import (
	"streamtok/internal/fused"
)

// The fused feed loops: same emission, carry, and draining semantics as
// the split loops in streamtok.go (byte-identical token streams, pinned
// by differential tests and fuzzing), with the per-byte decision
// flattened into the internal/fused action tables and long self-loop
// runs skipped in bulk. Streamer fields are hoisted into locals for the
// duration of a chunk and written back at every exit.

// feedFusedSmall is the k ≤ 1 fast path. Unlike split feedK1, A runs
// undelayed: the packed word already folds the one-byte-lookahead
// decision of Fig. 5 into the transition for the current byte, so the
// loop is one table load and one predictable branch per byte.
func (s *Streamer) feedFusedSmall(chunk []byte, emit EmitFunc) {
	e := s.fe
	words := e.Words
	infos := e.Infos
	accelIdx := e.AccelIdx
	classOf := &e.ClassOf // 256-entry class map: L1-resident, one load per byte
	nc := e.NumClasses
	q := s.qa
	base := s.pos // stream offset of chunk[0]; A is not delayed here
	n := len(chunk)
	// Emitted tokens end before the current byte for k=1 (the byte is
	// the lookahead that proves maximality) and after it for k=0.
	endAdj := 0
	if e.K <= 0 {
		endAdj = 1
	}
	// Accel tallies stay in locals for the chunk and fold into the
	// counters at the exits (before stop(), which retires the block).
	attempts, skipped := 0, 0
	for i := 0; i < n; i++ {
		w := words[q*nc+int(classOf[chunk[i]])]
		q = int(w & fused.StateMask)
		if w <= fused.StateMask {
			continue // plain continue: no action, no accel
		}
		if w&fused.SmallAccelBit != 0 {
			// q self-loops on a byte class: the state, pending token, and
			// offsets are invariant across the run, so jump to its last
			// byte whatever its length — the scan is cheaper per byte
			// than the loop, and the run's interior never re-enters this
			// branch.
			if i+1 < n {
				j := infos[accelIdx[q]].ScanRun(chunk, i+1)
				attempts++
				skipped += j - i - 1
				i = j - 1
			}
			continue
		}
		act := w >> fused.SmallActShift
		if act == fused.SActDead {
			s.qa = q
			s.pos = base + i + endAdj
			s.noteAccel(attempts, skipped)
			s.stop()
			return
		}
		s.pos = base + i + endAdj
		s.emitToken(emit, int(act-fused.SActEmitBase), chunk, base)
	}
	s.qa = q
	s.pos = base + n
	s.noteAccel(attempts, skipped)
	s.saveCarry(chunk, base)
}

// feedFusedGeneral is the k ≥ 2 fast path over the eager TeDFA: B and A
// step their own flat tables (independent loads; B on the current byte,
// A on the byte k positions back) and the maximality + dead + rule
// decisions collapse into one action word indexed by the (q_A, s_B)
// pair.
//
// The delay ring is touched only at chunk edges. A's byte at chunk
// index i is the stream byte k positions back: for the first k indices
// that byte came from an earlier chunk and sits in the ring, and from
// i = k on it is chunk[i-k]. So a short prologue steps A out of the
// ring (and keeps the ring current, carrying A's bytes for the pending
// token's text), and the steady-state loops read A's byte straight
// from the chunk with no ring store, mask, or carry test per byte; at
// every exit past the prologue the ring is refilled with the last k
// bytes B consumed, so Checkpoint and Close see exactly the ring the
// per-byte loop would have left. Throughout the steady state A sits at
// stream offset base+i+1-k after index i, so pos is derived, not
// counted.
func (s *Streamer) feedFusedGeneral(chunk []byte, emit EmitFunc) {
	e := s.fe
	at := s.m.DFA.Trans
	bt := e.TeTrans
	act := e.Act
	nS := e.TeStates
	classOf := &e.ClassOf // shared A/B class map, hoisted for the loop
	nc := e.NumClasses
	gInfos := e.Infos
	gAccelIdx := e.AccelIdx
	ring := s.ring
	mask := s.ringMask
	k := s.k
	qa, sb, h, pos := s.qa, s.s, s.head, s.pos
	base := pos + s.filled // stream offset of chunk[0]
	n := len(chunk)
	i := 0
	// Fill phase: only B steps until the ring holds k bytes (happens
	// once per stream).
	for ; i < n && s.filled < k; i++ {
		b := chunk[i]
		sb = int(bt[sb*nc+int(classOf[b])])
		ring[(h+s.filled)&mask] = b
		s.filled++
	}
	// Prologue: A consumes the ring's bytes, all from earlier chunks.
	// Accel attempts start with the steady state (they would have to
	// scan across the ring), which only delays a skip by < k bytes.
	for lim := min(n, k); i < lim; i++ {
		b := chunk[i]
		sb = int(bt[sb*nc+int(classOf[b])])
		a := ring[h]
		ring[(h+k)&mask] = b
		h = (h + 1) & mask
		s.carry = append(s.carry, a) // the pending token's text
		qa = int(at[qa*nc+int(classOf[a])])
		pos++
		w := act[qa*nS+sb] & fused.GActionBit
		if w == fused.GContinue {
			continue
		}
		if w == fused.GDead {
			s.qa, s.s, s.head, s.pos = qa, sb, h, pos
			s.stop()
			return
		}
		s.pos = pos
		s.emitToken(emit, int(w-fused.GEmitBase), chunk, base)
		qa = s.m.DFA.Start // emitToken restarted A
	}
	if i >= n {
		s.qa, s.s, s.head, s.pos = qa, sb, h, pos
		s.saveCarry(chunk, base)
		return
	}
	// Steady state: i ≥ k, A's byte is chunk[i-k]. Every exit below
	// leaves through stopAt or the normal exit, which refill the ring.
	aBase := base + 1 - k // A's stream offset after index i is aBase+i
	// Accel attempts are suppressed below noAccel: briefly mid-run after a
	// failed probe, and for long stretches when the profitability governor
	// decides attempts are not paying (attempts roughly double the work
	// over the run they scan, so inputs dominated by short fragmented runs
	// are stepped, not scanned). Suppressed stretches run a copy of the
	// loop with the accel arm compiled out, so an accel-flagged continue
	// word costs the same as a plain one; the governor's exponential
	// backoff makes hopeless inputs converge to that loop while regime
	// changes are still noticed.
	noAccel := 0
	attempts, ringFails, skipped := 0, 0, 0
	pausePen := 1 << 12
	for i < n {
		if lim := noAccel - 1; i < lim {
			if lim > n {
				lim = n
			}
			for ; i < lim; i++ {
				sb = int(bt[sb*nc+int(classOf[chunk[i]])])
				qa = int(at[qa*nc+int(classOf[chunk[i-k]])])
				w := act[qa*nS+sb] & fused.GActionBit
				if w == fused.GContinue {
					continue
				}
				if w == fused.GDead {
					s.noteAccel(attempts, skipped)
					s.stopAt(chunk, i, qa, sb, aBase+i)
					return
				}
				s.pos = aBase + i
				s.emitToken(emit, int(w-fused.GEmitBase), chunk, base)
				qa = s.m.DFA.Start // emitToken restarted A
			}
			continue
		}
		// Active loop: runs until an attempt fails (which sets noAccel and
		// falls back to the suppressed loop above). The dispatch guarantees
		// i+1 ≥ noAccel throughout, so the accel arm does not re-check it.
		for ; i < n; i++ {
			sb = int(bt[sb*nc+int(classOf[chunk[i]])]) // B is k symbols ahead of A
			qa = int(at[qa*nc+int(classOf[chunk[i-k]])])
			w := act[qa*nS+sb]
			if w == fused.GContinue {
				continue
			}
			if w&fused.GAccelBit != 0 {
				// The (qa, sb) pair self-loops on a byte class. A consumes
				// the delayed bytes before the scanned ones, so the run is
				// only skippable when those are inside the class too —
				// which they are whenever both machines are already
				// mid-run.
				if i+1 >= n {
					continue
				}
				if (attempts >= 64 && skipped < attempts*8) ||
					(ringFails >= 256 && skipped < ringFails*2) {
					noAccel = i + pausePen
					if pausePen < 1<<20 {
						pausePen <<= 1
					}
					s.noteAccel(attempts, skipped)
					if !s.noObs {
						s.c.AccelBackoffs++
						s.c.FusedFallbacks++
					}
					attempts, ringFails, skipped = 0, 0, 0
					i++
					break
				}
				inf := &gInfos[gAccelIdx[qa*nS+sb]]
				if bad := delayedBad(inf, chunk[i+1-k:i+1]); bad >= 0 {
					// A still has an out-of-class byte to consume;
					// cheap to detect, so skip the scan entirely and
					// retry once that byte has been consumed.
					ringFails++
					if !s.noObs {
						s.c.FusedFallbacks++
					}
					noAccel = i + 2 + bad
					i++
					break
				}
				attempts++ // scans cost O(run); delayedBad rejects only O(k)
				j := inf.ScanRun(chunk, i+1)
				r := j - (i + 1)
				// Runs of at least k bytes are skipped (the scan is
				// already paid, and the run's interior then never
				// re-enters this branch); shorter ones are stepped with
				// attempts paused until the run ends.
				if r >= k {
					skipped += r
					i = j - 1
					continue
				}
				noAccel = j
				if !s.noObs {
					s.c.FusedFallbacks++
				}
				i++
				break
			}
			if w == fused.GDead {
				s.noteAccel(attempts, skipped)
				s.stopAt(chunk, i, qa, sb, aBase+i)
				return
			}
			s.pos = aBase + i
			s.emitToken(emit, int(w-fused.GEmitBase), chunk, base)
			qa = s.m.DFA.Start // emitToken restarted A
		}
	}
	s.qa, s.s, s.pos = qa, sb, aBase+n-1
	s.refillRing(chunk[n-k:])
	s.noteAccel(attempts, skipped)
	s.saveCarry(chunk, base)
}

// stopAt is feedFusedGeneral's dead exit from the steady state: B has
// consumed chunk[:i+1], so the ring is left holding chunk[i+1-k:i+1].
func (s *Streamer) stopAt(chunk []byte, i, qa, sb, pos int) {
	s.qa, s.s, s.pos = qa, sb, pos
	s.refillRing(chunk[i+1-s.k : i+1])
	s.stop()
}

// refillRing makes the ring hold the k delayed bytes last, in stream
// order from the head.
func (s *Streamer) refillRing(last []byte) {
	copy(s.ring, last)
	s.head = 0
}

// delayedBad returns the highest index of delayed (the k bytes B has
// consumed but A has not, in consumption order) holding a byte outside
// the accel class, or -1 when all are inside it. The latter is a
// precondition for bulk skipping: A consumes them during the skip while
// the skip assumes its state cannot move.
func delayedBad(inf *fused.AccelInfo, delayed []byte) int {
	for t := len(delayed) - 1; t >= 0; t-- {
		if !inf.Contains(delayed[t]) {
			return t
		}
	}
	return -1
}
