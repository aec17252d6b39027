package core

import (
	"fmt"
	"math/rand"
	"testing"

	"metachaos/internal/mpsim"
)

// randomPartition splits n elements over parts ranks, every share >= 1.
func randomPartition(rng *rand.Rand, n, parts int) []int {
	counts := make([]int, parts)
	for i := range counts {
		counts[i] = 1
	}
	for i := parts; i < n; i++ {
		counts[rng.Intn(parts)]++
	}
	return counts
}

// blockPos maps a rank's local offset in a block partition back to its
// global position.
func blockPos(counts []int, rank int, off int32) int {
	base := 0
	for r := 0; r < rank; r++ {
		base += counts[r]
	}
	return base + int(off)
}

// TestScheduleFromRoutesPairsLanes drives randomized BlockRoutes
// partitions through NewScheduleFromRoutes on every rank and checks
// the assembled schedules form one consistent transfer: every source
// position leaves exactly once (by a send or a local pair), every
// destination position is filled exactly once (by a receive or a
// local pair), and rank p's send lane to q lines up element by element
// with q's receive lane from p — the k-th offset sent carries the
// position the k-th offset received expects.
func TestScheduleFromRoutesPairsLanes(t *testing.T) {
	const ranks = 4
	world := make([]int, ranks)
	for i := range world {
		world[i] = i
	}
	// Same seed for every trial's partitions: route maps are
	// SPMD-replicated, so the check builds them once outside the world.
	rng := rand.New(rand.NewSource(20260809))
	for trial := 0; trial < 25; trial++ {
		n := 64 + rng.Intn(512)
		src := randomPartition(rng, n, ranks)
		dst := randomPartition(rng, n, ranks)
		// Perturb a few boundaries, as a rank joining or a block
		// migrating would.
		for m := 0; m < 1+rng.Intn(3); m++ {
			i := rng.Intn(ranks - 1)
			if dst[i] > 1 {
				dst[i]--
				dst[i+1]++
			}
		}
		rm, err := BlockRoutes(src, dst, world, world)
		if err != nil {
			t.Fatal(err)
		}

		scheds := make([]*Schedule, ranks)
		mpsim.RunSPMD(mpsim.SP2(), ranks, func(p *mpsim.Proc) {
			s, err := NewScheduleFromRoutes(SingleProgram(p.Comm()), rm, Float64, p.WorldRank())
			if err != nil {
				panic(err)
			}
			scheds[p.Rank()] = s
		})

		label := fmt.Sprintf("trial %d (src=%v dst=%v)", trial, src, dst)
		sent := make([]int, n)
		filled := make([]int, n)
		for p, s := range scheds {
			if s.Elems() != n {
				t.Fatalf("%s: rank %d schedule moves %d elements, want %d", label, p, s.Elems(), n)
			}
			s.EachLocal(func(so, do int32) {
				sp, dp := blockPos(src, p, so), blockPos(dst, p, do)
				if sp != dp {
					t.Fatalf("%s: rank %d local pair (%d,%d) joins positions %d and %d", label, p, so, do, sp, dp)
				}
				sent[sp]++
				filled[dp]++
			})
			for _, pl := range s.Sends {
				pl.Each(func(off int32) { sent[blockPos(src, p, off)]++ })
			}
			for _, pl := range s.Recvs {
				pl.Each(func(off int32) { filled[blockPos(dst, p, off)]++ })
			}
			for _, out := range s.Sends {
				q := out.Peer
				var in *PeerList
				for i := range scheds[q].Recvs {
					if scheds[q].Recvs[i].Peer == p {
						in = &scheds[q].Recvs[i]
					}
				}
				if in == nil {
					t.Fatalf("%s: rank %d sends to %d, which has no receive lane from it", label, p, q)
				}
				so, ro := out.ExpandOffsets(), in.ExpandOffsets()
				if len(so) != len(ro) {
					t.Fatalf("%s: lane %d->%d sends %d elements, receives %d", label, p, q, len(so), len(ro))
				}
				for k := range so {
					if sp, rp := blockPos(src, p, so[k]), blockPos(dst, q, ro[k]); sp != rp {
						t.Fatalf("%s: lane %d->%d element %d sends position %d, receiver expects %d", label, p, q, k, sp, rp)
					}
				}
			}
		}
		for pos := 0; pos < n; pos++ {
			if sent[pos] != 1 || filled[pos] != 1 {
				t.Fatalf("%s: position %d sent %d times, filled %d times, want once each", label, pos, sent[pos], filled[pos])
			}
		}
	}
}
