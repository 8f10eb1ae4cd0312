package mpisim

import (
	"fmt"
	"sort"
)

// Comm is a sub-communicator: an ordered subset of world ranks with its
// own rank numbering, as created by MPI_Comm_split. Collectives on a Comm
// involve only its members; the real NPB codes use row/column
// communicators for their reductions (CG's reduce_exch, BT/SP's sweeps).
type Comm struct {
	// members maps comm rank → world rank, ascending in world rank (the
	// MPI_Comm_split ordering for equal keys).
	members []int
	// index maps world rank → comm rank.
	index map[int]int
	// id disambiguates collective tags across communicators.
	id int
}

// commSplit tracks split results per world so every member resolves the
// same Comm objects deterministically.
type commSplit struct {
	comms map[int]*Comm // color → comm
}

// Split partitions the world by color, returning the communicator that
// this rank belongs to — MPI_Comm_split with the world rank as key. Every
// rank of the world must call Split with the same splitKey (an arbitrary
// application-chosen identifier for this split site) and its own color.
// Negative colors return nil (MPI_UNDEFINED).
//
// Split is collective and synchronizing: it barriers the world so all
// colors are known before any communicator is used.
func (r *Rank) Split(splitKey, color int) *Comm {
	w := r.world
	if w.splits == nil {
		w.splits = map[int]*splitState{}
	}
	st, ok := w.splits[splitKey]
	if !ok {
		st = &splitState{colors: make([]int, w.Size()), present: make([]bool, w.Size())}
		w.splits[splitKey] = st
	}
	if st.present[r.id] && st.colors[r.id] != color {
		panic(fmt.Sprintf("mpisim: rank %d re-split key %d with a different color", r.id, splitKey))
	}
	st.colors[r.id] = color
	st.present[r.id] = true
	// All ranks must reach the split before membership is known: once the
	// barrier's operations have finished, every rank has recorded its
	// color.
	r.Barrier()
	r.drain()
	if color < 0 {
		return nil
	}
	if st.result == nil {
		st.result = &commSplit{comms: map[int]*Comm{}}
		byColor := map[int][]int{}
		for rank, c := range st.colors {
			if st.present[rank] && c >= 0 {
				byColor[c] = append(byColor[c], rank)
			}
		}
		for c, members := range byColor {
			sort.Ints(members)
			idx := make(map[int]int, len(members))
			for i, m := range members {
				idx[m] = i
			}
			w.commSeq++
			st.result.comms[c] = &Comm{members: members, index: idx, id: w.commSeq}
		}
	}
	return st.result.comms[color]
}

// splitState accumulates one split site's colors.
type splitState struct {
	colors  []int
	present []bool
	result  *commSplit
}

// Size returns the communicator's member count.
func (c *Comm) Size() int { return len(c.members) }

// commTag derives collective tags unique to this communicator.
func (c *Comm) commTag(r *Rank, round int) int {
	return -(1_000_000 + c.id*4096 + r.commColl[c.id]*64 + round)
}

// nextColl advances this rank's per-communicator collective sequence.
func (c *Comm) nextColl(r *Rank) {
	if r.commColl == nil {
		r.commColl = map[int]int{}
	}
	r.commColl[c.id]++
}

// member panics unless r belongs to the communicator.
func (c *Comm) member(r *Rank) int {
	i, ok := c.index[r.id]
	if !ok {
		panic(fmt.Sprintf("mpisim: rank %d not in communicator", r.id))
	}
	return i
}

// Allreduce combines bytes across the communicator (recursive doubling
// with a pre-fold for non-power-of-two sizes).
func (c *Comm) Allreduce(r *Rank, bytes int) {
	me := c.member(r)
	n := c.Size()
	r.emitColl("comm-allreduce", bytes, func() {
		if n == 1 {
			c.nextColl(r)
			return
		}
		// Fold ranks beyond the largest power of two into the base set.
		p2 := 1
		for p2*2 <= n {
			p2 *= 2
		}
		extra := n - p2
		tag := func(round int) int { return c.commTag(r, round) }
		switch {
		case me >= p2:
			// Send to partner, wait for the result.
			partner := c.members[me-p2]
			r.Send(partner, tag(32), bytes)
			r.recv(partner, tag(33))
		default:
			if me < extra {
				r.recv(c.members[me+p2], tag(32))
			}
			for round, dist := 0, 1; dist < p2; round, dist = round+1, dist*2 {
				partner := c.members[me^dist]
				r.SendRecv(partner, bytes, partner, bytes, tag(round))
			}
			if me < extra {
				r.Send(c.members[me+p2], tag(33), bytes)
			}
		}
		c.nextColl(r)
	})
}
