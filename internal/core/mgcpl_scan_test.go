package core

import (
	"math"
	"math/rand"
	"testing"

	"mcdc/internal/categorical"
	"mcdc/internal/similarity"
)

// scanOracle is Eq. (6) and Eq. (9) scored one cluster at a time, with no
// term matrix: every non-empty slot in index order (an eliminated slot is
// always empty), object i's own cluster leave-one-out and every other
// cluster through WeightedSimLOO(…, false), which the term columns reproduce
// bit for bit (TestTermMatrixMatchesWeightedSimLOO).
func scanOracle(st *mgcplState, i int, gTotal float64) (v, h int, simV, simH float64) {
	v, h = -1, -1
	best, second := math.Inf(-1), math.Inf(-1)
	own := st.assign[i]
	for l := 0; l < st.tables.K(); l++ {
		if st.tables.Size(l) == 0 {
			continue
		}
		rho := 0.0
		if gTotal > 0 {
			rho = float64(st.g[l]+st.gCur[l]) / gTotal
		}
		sim := st.tables.WeightedSimLOO(i, l, st.omega[l], l == own)
		score := (1 - rho) * st.u[l] * sim
		switch {
		case score > best:
			second, h, simH = best, v, simV
			best, v, simV = score, l, sim
		case score > second:
			second, h, simH = score, l, sim
		}
	}
	return v, h, simV, simH
}

// TestPickWinnerAndRivalMatchesScanOracle checks the two-pass scoring over
// the term matrix against scanOracle for every object, on random mid-pass
// states: clusters emptied mid-pass, whose slots stay in the scan until the
// pass ends, eliminations mid-level, which renumber the survivors in order
// and relabel the assignment, random winning counts and sigmoid weights,
// Missing cells, and objects whose own cluster's column is stale. In the
// last trials every row has a twin, and two slots are made twins too: equal
// members, ω and guidance, so that they tie exactly, at best for some
// objects and at second for others. Winner, rival and both similarities
// must agree under math.Float64bits, and both kinds of tie must occur.
func TestPickWinnerAndRivalMatchesScanOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	tiesAtBest, tiesAtSecond := 0, 0 // slots scoring the same as v or h
	for trial := 0; trial < 60; trial++ {
		twins := trial >= 40
		n, d := 8+rng.Intn(120), 1+rng.Intn(10)
		if twins {
			n += n % 2
		}
		card := make([]int, d)
		for r := range card {
			card[r] = 1 + rng.Intn(6)
		}
		missing := []float64{0, 0.15, 0.5}[trial%3]
		rows := make([][]int, n)
		for i := range rows {
			if twins && i >= n/2 {
				rows[i] = rows[i-n/2]
				continue
			}
			rows[i] = make([]int, d)
			for r := range rows[i] {
				if rng.Float64() < missing {
					rows[i][r] = categorical.Missing
				} else {
					rows[i][r] = rng.Intn(card[r])
				}
			}
		}
		k := 2 + rng.Intn(min(n, 20)-1)
		ix, err := similarity.NewIndex(rows, card)
		if err != nil {
			t.Fatal(err)
		}
		st := newMGCPLState(ix, k, DefaultLearningRate, defaultRivalThreshold,
			rand.New(rand.NewSource(rng.Int63())), 1)
		// move is learnLevel's bookkeeping for object i joining cluster v.
		move := func(i, v int) {
			if own := st.assign[i]; own != v {
				if own >= 0 {
					st.tables.Remove(i, own)
					st.markStale(own)
				}
				st.tables.Add(i, v)
				st.markStale(v)
				st.assign[i] = v
			}
		}
		check := func(step, i int, gTotal float64) {
			t.Helper()
			own := st.assign[i]
			stale := own >= 0 && st.isStale[own]
			gv, gh, gsv, gsh := st.pickWinnerAndRival(i, gTotal)
			wv, wh, wsv, wsh := scanOracle(st, i, gTotal)
			if gv != wv || gh != wh || math.Float64bits(gsv) != math.Float64bits(wsv) || math.Float64bits(gsh) != math.Float64bits(wsh) {
				t.Fatalf("trial %d step %d object %d (own %d, stale %v): got (v %d, h %d, simV %v, simH %v), oracle (v %d, h %d, simV %v, simH %v)",
					trial, step, i, own, stale, gv, gh, gsv, gsh, wv, wh, wsv, wsh)
			}
			// Count the positive ties the selection broke, from the scores
			// it saw.
			for l, s := range st.score {
				if l == gv || st.tables.Size(l) == 0 || !(s > 0) {
					continue
				}
				if s == st.score[gv] {
					tiesAtBest++
				} else if l != gh && gh >= 0 && s == st.score[gh] {
					tiesAtSecond++
				}
			}
		}
		for step := 0; step < 12; step++ {
			var pair []int // twin slots, whose guidance is made equal below
			op := rng.Intn(4)
			if twins && step%2 == 1 {
				op = 4
			}
			switch op {
			case 0:
				// Empty a cluster mid-pass: its members join other clusters,
				// and the slot stays in the scan until the pass ends.
				k := st.tables.K()
				if k < 2 {
					break
				}
				from := rng.Intn(k)
				for i, a := range st.assign {
					if a != from {
						continue
					}
					to := from
					for to == from {
						to = rng.Intn(k)
					}
					move(i, to)
				}
			case 1:
				// End the pass as learnLevel does: refresh ω, eliminate the
				// emptied slots, and reset the survivors' guidance. The
				// survivors must keep their order, their ω and their members.
				st.refreshWeights()
				want := make([]int, st.tables.K())
				kept := 0
				for l := range want {
					want[l] = -1
					if st.tables.Size(l) > 0 {
						want[l], kept = kept, kept+1
					}
				}
				before := append([]int(nil), st.assign...)
				omega := append([][]float64(nil), st.omega...)
				if got := st.eliminate(); got != (kept < len(want)) {
					t.Fatalf("trial %d step %d: eliminate reported %v with %d of %d slots non-empty", trial, step, got, kept, len(want))
				}
				if st.tables.K() != kept || len(st.acc) != kept || len(st.omega) != kept || len(st.stale) != kept {
					t.Fatalf("trial %d step %d: %d survivors, but K %d, %d accumulators, %d ω, %d stale columns",
						trial, step, kept, st.tables.K(), len(st.acc), len(st.omega), len(st.stale))
				}
				for i, l := range before {
					if l >= 0 && st.assign[i] != want[l] {
						t.Fatalf("trial %d step %d: object %d in slot %d relabelled %d, want %d", trial, step, i, l, st.assign[i], want[l])
					}
				}
				for l, to := range want {
					if to >= 0 && &st.omega[to][0] != &omega[l][0] {
						t.Fatalf("trial %d step %d: slot %d's ω did not move to slot %d", trial, step, l, to)
					}
				}
				if kept < len(want) {
					st.resetGuidance()
				}
			case 4:
				// Make two slots twins: a takes a random set of objects and
				// b their twin rows, and the rest go to the other slots;
				// b's ω becomes a copy of a's.
				k := st.tables.K()
				if k < 3 {
					break
				}
				pick := rng.Perm(k)
				a, b := min(pick[0], pick[1]), max(pick[0], pick[1])
				for i := range rows[:n/2] {
					switch {
					case rng.Intn(3) == 0:
						move(i, a)
						move(i+n/2, b)
					default:
						for _, j := range []int{i, i + n/2} {
							if to := st.assign[j]; to == a || to == b || to < 0 {
								move(j, pick[2+rng.Intn(k-2)])
							}
						}
					}
				}
				if st.tables.Size(a) == 0 {
					move(0, a)
					move(n/2, b)
				}
				copy(st.omega[b], st.omega[a])
				st.markStale(b)
				pair = []int{a, b}
			default:
				// Present a run of objects: each joins its winner.
				for p := 0; p < 1+rng.Intn(n); p++ {
					i := rng.Intn(n)
					if v, _, _, _ := st.pickWinnerAndRival(i, 0); v >= 0 {
						move(i, v)
						// i's own cluster is now stale: score a member of it
						// before any other object rewrites its column.
						check(step, i, 0)
					}
				}
			}
			// A random mid-pass guidance state.
			gTotal := 0.0
			for l := range st.g {
				st.g[l], st.gCur[l] = rng.Intn(n), rng.Intn(n)
				st.delta[l] = 2*rng.Float64() - 1
				st.u[l] = sigmoidWeight(st.delta[l])
			}
			if pair != nil {
				a, b := pair[0], pair[1]
				st.g[b], st.gCur[b], st.delta[b], st.u[b] = st.g[a], st.gCur[a], st.delta[a], st.u[a]
			}
			for l := range st.g {
				gTotal += float64(st.g[l] + st.gCur[l])
			}
			if rng.Intn(4) == 0 {
				gTotal = 0
			}
			for _, i := range rng.Perm(n) {
				check(step, i, gTotal)
			}
		}
	}
	if tiesAtBest == 0 || tiesAtSecond == 0 {
		t.Fatalf("%d positive exact ties at best and %d at second, want some of each", tiesAtBest, tiesAtSecond)
	}
}
