package mpisim

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"repro/internal/dvs"
)

func TestRankProgramAllocFree(t *testing.T) {
	// A 4-rank program of about 14,000 operations per rank, 27 a round
	// and of every kind, so the ring fills and refills throughout. Once
	// a warm-up has grown the ranks' request freelists and mailboxes and
	// the world's delivery freelist to their steady size, issuing,
	// queueing and running operations allocates nothing.
	const warmup, rounds = 64, 512
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	k, w := world(t, 4)
	bytesTo := []int{512, 1024, 2048, 4096}
	round := func(r *Rank, i int) {
		n, id := r.Size(), r.ID()
		next, prev := (id+1)%n, (id+n-1)%n
		r.Compute(0.5)
		r.MemoryStall(20 * time.Microsecond)
		r.SetSpeed(600 + 800*dvs.MHz(i%2))
		r.SendRecv(next, 1024, prev, 0, 1)
		r.SendRecv(prev, 256<<10, next, 0, 2) // rendezvous
		rreq := r.Irecv(prev, 3)
		sreq := r.Isend(next, 3, 4096)
		r.Wait(sreq)
		r.Wait(rreq)
		r.DiskIO(10 * time.Microsecond)
		r.Allreduce(64)
		r.Alltoallv(bytesTo)
		r.Barrier()
		if id%2 == 0 {
			r.Send(id+1, 4, 200<<10)
		} else {
			r.Recv(id-1, 4)
		}
	}
	var mallocs uint64
	launch(t, k, w, func(r *Rank) {
		for i := 0; i < warmup; i++ {
			round(r, i)
		}
		var m0, m1 runtime.MemStats
		r.Now() // drain, so that only the rounds below are measured
		if r.ID() == 0 {
			runtime.ReadMemStats(&m0)
		}
		for i := 0; i < rounds; i++ {
			round(r, i)
		}
		r.Now()
		if r.ID() == 0 {
			runtime.ReadMemStats(&m1)
			mallocs = m1.Mallocs - m0.Mallocs
		}
	})
	if mallocs != 0 {
		t.Fatalf("%d rounds of mixed rank operations allocate %d objects, want 0", rounds, mallocs)
	}
}
