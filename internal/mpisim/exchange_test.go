package mpisim

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/sim"
)

func TestSendRecvOneHandoffPerCall(t *testing.T) {
	// Two ranks trading messages in a fixed loop: each SendRecv parks its
	// rank once, and the send overhead, the send's completion, the arrival
	// and the receive overhead run in the dispatch loop. So each call
	// wakes its rank once, and that wake is at most one handoff. Here
	// only every other one is: the rank that starts a round last is the
	// one running the loop, and its partner's message, sent earlier,
	// reaches it first, so it finishes first and resumes itself. Only
	// its partner's wake switches, once per round, plus the two handoffs
	// that start the ranks.
	const calls = 200
	k, w := world(t, 2)
	launch(t, k, w, func(r *Rank) {
		other := 1 - r.ID()
		for i := 0; i < calls; i++ {
			r.SendRecv(other, 1024, other, 1024, 5)
		}
	})
	st := k.Stats()
	if want := calls + 2; st.Handoffs != want {
		t.Fatalf("%d handoffs for %d SendRecv calls on 2 ranks, want %d", st.Handoffs, calls, want)
	}
	if st.Absorbed < 2*calls*3 {
		t.Fatalf("only %d wakes absorbed by the exchange guard", st.Absorbed)
	}
}

func TestFourCallHandoffs(t *testing.T) {
	// The loop of TestSendRecvOneHandoffPerCall, written as the four
	// calls SendRecv stands for. Isend and each Wait block the rank at
	// most once. So a rank's proc resumes three times a round: when
	// Isend's overhead is paid, when its send completes, and when the
	// receive overhead is paid. The receive's arrival wakes only the
	// driver, which starts that overhead in the dispatch loop. Of the six
	// resumes a round, all but one switch coroutines, plus the two
	// handoffs that start the ranks.
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
	st := k.Stats()
	if st.Handoffs != 5*calls+2 || st.Absorbed != 2*calls {
		t.Fatalf("stats %+v for %d rounds, want %d handoffs and %d absorbed wakes", st, calls, 5*calls+2, 2*calls)
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

// exchangeRun runs exchangeProgram on a fresh 4-rank world while a
// governor proc changes node frequencies at random instants (so DVS
// interrupts land inside message overheads), and returns everything the
// run measured.
func exchangeRun(t *testing.T, sendRecv func(r *Rank, dst, sendBytes, src, tag int)) string {
	t.Helper()
	k, w := world(t, 4)
	var trace []string
	w.SetTracer(tracerFunc(func(rank int, kind EventKind, name string, start, end sim.Time, bytes, peer int) {
		trace = append(trace, fmt.Sprint(rank, kind, name, start, end, bytes, peer))
	}))
	rng := rand.New(rand.NewSource(1))
	k.Spawn("governor", func(p *sim.Proc) {
		for !w.Done() {
			p.Sleep(time.Duration(1+rng.Intn(200)) * time.Microsecond)
			if err := w.Node(rng.Intn(4)).SetFrequencyIndex(rng.Intn(5)); err != nil {
				t.Error(err)
			}
		}
	})
	launch(t, k, w, exchangeProgram(sendRecv))
	out := fmt.Sprint(w.Elapsed(), "\n", strings.Join(trace, "\n"))
	for i := 0; i < w.Size(); i++ {
		out += fmt.Sprintf("\n%+v %+v %v %d", w.Rank(i).Stats(), w.Node(i).Energy(), w.Node(i).TimeAt(), w.Node(i).Transitions())
	}
	return out
}

func TestSendRecvMatchesItsFourCalls(t *testing.T) {
	// SendRecv runs its steps in the dispatch loop, but it must measure
	// exactly what Irecv, Isend, Wait and Wait measure in the proc: the
	// same trace, stats, energy splits and residency, bit for bit.
	guarded := exchangeRun(t, func(r *Rank, dst, sendBytes, src, tag int) {
		r.SendRecv(dst, sendBytes, src, sendBytes, tag)
	})
	inProc := exchangeRun(t, func(r *Rank, dst, sendBytes, src, tag int) {
		rreq := r.Irecv(src, tag)
		sreq := r.Isend(dst, tag, sendBytes)
		r.Wait(sreq)
		r.Wait(rreq)
	})
	if guarded != inProc {
		g, p := strings.Split(guarded, "\n"), strings.Split(inProc, "\n")
		for i := range g {
			if i >= len(p) || g[i] != p[i] {
				t.Fatalf("SendRecv diverges from Irecv+Isend+Wait+Wait at line %d:\n got %s\nwant %s", i, g[i], p[min(i, len(p)-1)])
			}
		}
		t.Fatalf("SendRecv recorded %d lines, the four calls %d", len(g), len(p))
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
				w.Node(1).Compute(p, 1400)
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
