package mpisim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/dvs"
	"repro/internal/node"
	"repro/internal/sim"
)

// compute runs a compute phase of megacycles on n from p's own body,
// parking p through each sleep StepCompute arms.
func compute(n *node.Node, p *sim.Proc, megacycles float64) {
	n.StartCompute(p, megacycles, dvs.ActCompute)
	for n.StepCompute(p) {
		p.Park(nil)
	}
}

func TestSendRecvOneHandoffPerCall(t *testing.T) {
	// Two ranks trading messages in a fixed loop. Each rank's body issues
	// its calls ringDepth at a time: it parks when its ring is full and
	// at the final drain, calls/ringDepth = 16 times, and its proc resumes
	// only once the ring is empty. Every resume is a handoff: at each
	// instant rank 0's operations were scheduled first, so its ring
	// empties first while rank 1 runs the loop, and rank 1's then empties
	// while rank 0, refilled, runs it. So there are 2·16 handoffs, plus
	// the two that start the ranks. Each call wakes each rank four times
	// (send overhead, send completion, arrival, receive overhead), and
	// every one of those 8·calls wakes but the 32 resumes is absorbed.
	const calls = 256
	k, w := world(t, 2)
	launch(t, k, w, func(r *Rank) {
		other := 1 - r.ID()
		for i := 0; i < calls; i++ {
			r.SendRecv(other, 1024, other, 1024, 5)
		}
	})
	resumes := 2 * calls / ringDepth
	st := k.Stats()
	if st.Handoffs != resumes+2 || st.Absorbed != 8*calls-resumes {
		t.Fatalf("stats %+v for %d SendRecv calls on 2 ranks, want %d handoffs and %d absorbed wakes",
			st, calls, resumes+2, 8*calls-resumes)
	}
}

func TestFourCallHandoffs(t *testing.T) {
	// The loop of TestSendRecvOneHandoffPerCall, written as the four
	// calls SendRecv stands for: four operations a round, so each rank
	// parks 4·calls/ringDepth = 50 times, and each resume is a handoff,
	// as there. The rounds take the same 8·calls wakes, all absorbed but
	// the 100 resumes.
	const calls = 200
	k, w := world(t, 2)
	launch(t, k, w, func(r *Rank) {
		other := 1 - r.ID()
		for i := 0; i < calls; i++ {
			rreq := r.Irecv(other, 5)
			sreq := r.Isend(other, 5, 1024)
			r.Wait(sreq)
			r.Wait(rreq)
		}
	})
	resumes := 2 * 4 * calls / ringDepth
	st := k.Stats()
	if st.Handoffs != resumes+2 || st.Absorbed != 8*calls-resumes {
		t.Fatalf("stats %+v for %d rounds, want %d handoffs and %d absorbed wakes", st, calls, resumes+2, 8*calls-resumes)
	}
}

// exchangeProgram is a mixed workload over a 4-rank ring: computes,
// SendRecvs of eager and rendezvous sizes, and a blocking Send/Recv
// pair. sendRecv performs each exchange, so the program can run with
// SendRecv or with the four calls it stands for.
func exchangeProgram(sendRecv func(r *Rank, dst, sendBytes, src, tag int)) func(r *Rank) {
	return func(r *Rank) {
		n := r.Size()
		next, prev := (r.ID()+1)%n, (r.ID()-1+n)%n
		for i := 0; i < 40; i++ {
			r.Compute(float64(1 + (r.ID()*7+i*3)%5))
			bytes := 512 << uint((r.ID()+i)%10) // up to 256 KiB: past the eager limit
			sendRecv(r, next, bytes, prev, i)
			sendRecv(r, prev, bytes/2, next, 1000+i)
			if i%8 == 0 {
				if r.ID() == 0 {
					r.Send(1, 50, 100)
				} else if r.ID() == 1 {
					r.Recv(0, 50)
				}
			}
		}
	}
}

// measuredRun runs body on a fresh n-rank world while a governor proc
// changes a random node's frequency every 1–200 µs (so DVS interrupts
// land inside every kind of operation), and returns what the run
// measured: the trace, if traced, and the elapsed time with each rank's
// stats, energy, residency and transitions.
func measuredRun(t *testing.T, n int, traced bool, body func(r *Rank)) (trace, measured string) {
	t.Helper()
	k, w := world(t, n)
	var events []string
	if traced {
		w.SetTracer(tracerFunc(func(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
			events = append(events, fmt.Sprint(rank, kind, name, start, end, bytes, peer))
		}))
	}
	rng := rand.New(rand.NewSource(1))
	k.Spawn("governor", func(p *sim.Proc) {
		for !w.Done() {
			p.Sleep(time.Duration(1+rng.Intn(200)) * time.Microsecond)
			if err := w.Node(rng.Intn(n)).SetFrequencyIndex(rng.Intn(5)); err != nil {
				t.Error(err)
			}
		}
	})
	launch(t, k, w, body)
	measured = fmt.Sprint(w.Elapsed())
	for i := 0; i < w.Size(); i++ {
		measured += fmt.Sprintf("\n%+v %+v %v %d", w.Rank(i).Stats(), w.Node(i).Energy(), w.Node(i).TimeAt(), w.Node(i).Transitions())
	}
	return strings.Join(events, "\n"), measured
}

// sameLines fails t at the first line where got and want differ.
func sameLines(t *testing.T, what, got, want string) {
	t.Helper()
	if got == want {
		return
	}
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := range g {
		if i >= len(w) || g[i] != w[i] {
			t.Fatalf("%s diverge at line %d:\n got %s\nwant %s", what, i, g[i], w[min(i, len(w)-1)])
		}
	}
	t.Fatalf("%s: %d lines, want %d", what, len(g), len(w))
}

func TestSendRecvMatchesItsFourCalls(t *testing.T) {
	// SendRecv runs as one operation, but it must measure exactly what
	// Irecv, Isend, Wait and Wait measure: the same trace, stats, energy
	// splits and residency, bit for bit.
	trace, measured := measuredRun(t, 4, true, exchangeProgram(func(r *Rank, dst, sendBytes, src, tag int) {
		r.SendRecv(dst, sendBytes, src, sendBytes, tag)
	}))
	fourTrace, fourMeasured := measuredRun(t, 4, true, exchangeProgram(func(r *Rank, dst, sendBytes, src, tag int) {
		rreq := r.Irecv(src, tag)
		sreq := r.Isend(dst, tag, sendBytes)
		r.Wait(sreq)
		r.Wait(rreq)
	}))
	sameLines(t, "SendRecv and Irecv+Isend+Wait+Wait traces", trace, fourTrace)
	sameLines(t, "SendRecv and Irecv+Isend+Wait+Wait measurements", measured, fourMeasured)
}

// randomProgram is a random matched program of the given number of
// steps: computes, memory and disk stalls, SetSpeed calls, SendRecv,
// Isend/Irecv/Wait, blocking Send/Recv (also from AnySource) and the
// collectives, on a Split communicator too, with message sizes on both
// sides of the eager limit. Every rank draws the same random numbers, so
// the steps match; sizes and durations differ by rank. after runs after
// each operation.
func randomProgram(seed int64, steps int, after func(r *Rank)) func(r *Rank) {
	return func(r *Rank) {
		rng := rand.New(rand.NewSource(seed))
		n, id := r.Size(), r.ID()
		next, prev := (id+1)%n, (id+n-1)%n
		size := func() int { return rng.Intn(64) << uint((rng.Intn(16)+id)%16) } // up to 2 MiB
		row := r.Split(1, id%2)
		after(r)
		for i := 0; i < steps; i++ {
			b, d := size(), time.Duration(rng.Intn(2000)*(1+id))*time.Microsecond
			switch rng.Intn(13) {
			case 0:
				r.Compute(float64(b%40) / 4)
			case 1:
				r.MemoryStall(d)
			case 2:
				r.DiskIO(d)
			case 3:
				r.SetSpeed(dvs.MHz(600 + 200*((b+id)%5)))
			case 4:
				r.SendRecv(next, b, prev, 0, i)
			case 5:
				rreq := r.Irecv(prev, i)
				after(r)
				sreq := r.Isend(next, i, b)
				after(r)
				if b%2 == 0 {
					rreq, sreq = sreq, rreq
				}
				r.Wait(sreq)
				after(r)
				r.Wait(rreq)
			case 6:
				if id%2 == 0 && id+1 < n {
					r.Send(id+1, i, b)
				} else if id%2 == 1 {
					r.Recv(id-1, i)
				}
			case 7:
				if id != 0 {
					r.Send(0, i, b)
					break
				}
				for j := 1; j < n; j++ {
					r.Recv(AnySource, i)
					after(r)
				}
			case 8:
				r.Barrier()
			case 9:
				r.Allreduce(b)
			case 10:
				r.Alltoall(b)
			case 11:
				bytesTo := make([]int, n)
				for dst := range bytesTo {
					bytesTo[dst] = b >> uint(dst)
				}
				r.Alltoallv(bytesTo)
			case 12:
				row.Allreduce(r, b)
			}
			after(r)
		}
	}
}

func TestLookaheadMatchesDrainedPrograms(t *testing.T) {
	// A body that calls Now after every operation drains the rank's ring
	// each time, so it issues each operation only once the one before
	// has finished, as a body that blocked in every call would. Running
	// ahead must not change what any operation measures: the plain and
	// the drained program agree on trace, stats, energy, residency and
	// transitions, byte for byte, and so does the plain program without
	// a tracer, whose collectives do not drain.
	for seed := int64(1); seed <= 6; seed++ {
		n := 3 + int(seed)%3
		trace, measured := measuredRun(t, n, true, randomProgram(seed, 60, func(*Rank) {}))
		drainedTrace, drainedMeasured := measuredRun(t, n, true, randomProgram(seed, 60, func(r *Rank) { r.Now() }))
		_, untraced := measuredRun(t, n, false, randomProgram(seed, 60, func(*Rank) {}))
		what := fmt.Sprintf("seed %d on %d ranks: plain and drained", seed, n)
		sameLines(t, what+" traces", trace, drainedTrace)
		sameLines(t, what+" measurements", measured, drainedMeasured)
		sameLines(t, what+" measurements untraced", untraced, measured)
	}
}

func TestSendRecvWaitsNameTheirPeers(t *testing.T) {
	// On a 3-rank ring, rank 1 sends to 2 and receives from 0: the wait
	// event of its send names 2, and that of its receive names 0.
	k, w := world(t, 3)
	var peers []int
	w.SetTracer(tracerFunc(func(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
		if rank == 1 && kind == EvWait {
			peers = append(peers, peer)
		}
	}))
	launch(t, k, w, func(r *Rank) {
		n := r.Size()
		r.SendRecv((r.ID()+1)%n, 64, (r.ID()+n-1)%n, 64, 0)
	})
	if fmt.Sprint(peers) != "[2 0]" {
		t.Fatalf("rank 1's waits name peers %v, want [2 0] (send, then receive)", peers)
	}
}

// rankPanic runs body on a 2-rank world and returns the PanicError the
// run ends with.
func rankPanic(t *testing.T, w *World, k *sim.Kernel, body func(r *Rank)) *sim.PanicError {
	t.Helper()
	if err := w.Launch("t", body); err != nil {
		t.Fatal(err)
	}
	err := k.Run(sim.MaxTime)
	var pe *sim.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Run = %v, want a proc panic", err)
	}
	return pe
}

// exchangeForms are the call forms that run a receive through the
// operation driver. Each exchanges one 64-byte message with tag 3
// between ranks 0 and 1, and rank 1's receive is what fails.
var exchangeForms = []struct {
	name string
	call func(r *Rank)
}{
	{"SendRecv", func(r *Rank) {
		other := 1 - r.ID()
		r.SendRecv(other, 64, other, 64, 3)
	}},
	{"Recv", func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 3, 64)
		} else {
			r.Recv(0, 3)
		}
	}},
	{"Irecv+Isend+Wait+Wait", func(r *Rank) {
		other := 1 - r.ID()
		rreq := r.Irecv(other, 3)
		sreq := r.Isend(other, 3, 64)
		r.Wait(sreq)
		r.Wait(rreq)
	}},
}

func TestSendRecvOrderingViolationPanicsInRank(t *testing.T) {
	// A receive that fails the ordering check inside the loop stops the
	// driver; the rank's proc repeats the check and panics in its own
	// body.
	for _, form := range exchangeForms {
		t.Run(form.name, func(t *testing.T) {
			k, w := world(t, 2)
			w.cfg.CheckOrdering = true
			pe := rankPanic(t, w, k, func(r *Rank) {
				if r.ID() == 1 {
					r.seqs = map[seqKey]uint64{{peer: 0, tag: 3}: 100}
				}
				form.call(r)
			})
			if pe.Proc != "t.rank1" || pe.Value != "rank 1: ordering violation from 0 tag 3: seq 1 after 100" {
				t.Fatalf("panic %q in %s", pe.Value, pe.Proc)
			}
		})
	}
}

func TestSendRecvConcurrentComputePanicsInRank(t *testing.T) {
	// Rank 1 waits for its message until about 1 s while another proc
	// starts computing on its node at 0.5 s: the receive overhead cannot
	// start, and the rank's proc panics with the node's own message.
	for _, form := range exchangeForms {
		t.Run(form.name, func(t *testing.T) {
			k, w := world(t, 2)
			k.SpawnAt(sim.Time(500*time.Millisecond), "intruder", func(p *sim.Proc) {
				compute(w.Node(1), p, 1400)
			})
			pe := rankPanic(t, w, k, func(r *Rank) {
				if r.ID() == 0 {
					r.Compute(1400)
				}
				form.call(r)
			})
			if pe.Proc != "t.rank1" || pe.Value != "node 1: concurrent Compute" {
				t.Fatalf("panic %q in %s", pe.Value, pe.Proc)
			}
		})
	}
}
