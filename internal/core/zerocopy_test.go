package core

import (
	"testing"

	"metachaos/internal/mpsim"
	"metachaos/internal/obs"
)

// TestMoveBytesCopiedDrop pins the zero-copy data plane's headline
// claim: for a stride-1 section move the bytes actually memcpy'd are
// strictly below what the old copy-based executor spent, which was one
// full pack copy on the sender plus one full flatten on the receiver
// (≈ sent + received wire bytes).  Stride-1 runs ship as views of
// source storage and unpack straight into destination storage, so only
// settle-time materialization and local lanes still copy.
func TestMoveBytesCopiedDrop(t *testing.T) {
	const nprocs, moves = 4, 4
	// One slot per rank: ranks on different scheduler shards run
	// concurrently.
	var copiedBy, sentBy, recvBy [nprocs]int64
	mpsim.RunSPMD(mpsim.SP2(), nprocs, func(p *mpsim.Proc) {
		ctx := NewCtx(p, p.Comm())
		src := newTestObj(256, nprocs, 1, p.Rank())
		dst := newTestObj(256, nprocs, 1, p.Rank())
		src.fillDistinct(1000)
		sched, err := ComputeSchedule(SingleProgram(p.Comm()),
			&Spec{Lib: testLib{}, Obj: src, Set: NewSetOfRegions(regions(seqIdx(0, 120, 1), 3)...), Ctx: ctx},
			&Spec{Lib: testLib{}, Obj: dst, Set: NewSetOfRegions(regions(seqIdx(100, 120, 1), 2)...), Ctx: ctx},
			Cooperation)
		if err != nil {
			t.Errorf("ComputeSchedule: %v", err)
			return
		}
		sched.Move(src, dst) // warm-up
		before := p.LocalStats()
		r := p.Rank()
		for i := 0; i < moves; i++ {
			copiedBy[r] += int64(sched.Move(src, dst).BytesCopied)
		}
		after := p.LocalStats()
		sentBy[r] = after.BytesSent - before.BytesSent
		recvBy[r] = after.BytesRecv - before.BytesRecv
	})
	var copied, sent, recv int64
	for r := 0; r < nprocs; r++ {
		copied += copiedBy[r]
		sent += sentBy[r]
		recv += recvBy[r]
	}
	if sent == 0 || recv == 0 {
		t.Fatalf("move exchanged no wire bytes (sent %d, recv %d); test is vacuous", sent, recv)
	}
	oldCopied := sent + recv // the copy-based executor's pack + flatten
	t.Logf("bytes copied %d vs copy-based executor's %d (wire: %d sent, %d recv)", copied, oldCopied, sent, recv)
	if copied >= oldCopied {
		t.Errorf("zero-copy plane copied %d bytes over %d moves, not below the copy-based executor's %d",
			copied, moves, oldCopied)
	}
}

// TestMoveBytesCopiedCounter checks that the "move.bytes_copied"
// metric accumulates exactly the per-move BytesCopied results across
// ranks, and that a strided source (which must stage its runs into
// pooled segments) reports a non-zero copy count.
func TestMoveBytesCopiedCounter(t *testing.T) {
	tr := obs.NewTracer()
	// One slot per rank: ranks on different scheduler shards run
	// concurrently.
	copiedBy := make([]int64, 4)
	moveWorld(t, tr, func(p *mpsim.Proc, sched *Schedule, src, dst *testObj) {
		for i := 0; i < 2; i++ {
			copiedBy[p.Rank()] += int64(sched.Move(src, dst).BytesCopied)
		}
	})
	var copied int64
	for _, c := range copiedBy {
		copied += c
	}
	if copied == 0 {
		t.Fatal("strided move reported 0 bytes copied; staging should be counted")
	}
	if got := tr.MetricsRegistry().Counter("move.bytes_copied").Value(); got != copied {
		t.Errorf("move.bytes_copied counter = %d, summed MoveResult.BytesCopied = %d", got, copied)
	}
}
