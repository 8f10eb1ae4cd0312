package mpisim

import "repro/internal/sim"

// Collective algorithms over point-to-point, matching the classic MPICH
// implementations. Every rank of the world must call the same collectives
// in the same order; per-rank sequence numbers generate matching internal
// tags (negative, so they never collide with application tags ≥ 0).

// collTag returns the internal tag for collective seq/round.
func (r *Rank) collTag(round int) int {
	return -(1 + r.collSeq*64 + round)
}

// nextColl advances the per-rank collective sequence (call once per
// collective, after computing all of its tags via closures).
func (r *Rank) nextColl() { r.collSeq++ }

// emitColl wraps a collective body with the phase-policy hooks and a
// trace event. The policy runs outside the traced interval, matching a
// PMPI shim that surrounds the real MPI call.
func (r *Rank) emitColl(name string, bytes int, body func()) {
	if pol := r.world.policy; pol != nil {
		pol.BeforeCollective(r, name, bytes)
	}
	start := r.Now()
	body()
	r.world.emit(r.id, EvCollective, name, start, r.Now(), bytes, -1)
	if pol := r.world.policy; pol != nil {
		pol.AfterCollective(r, name, bytes)
	}
}

// Barrier synchronizes all ranks (dissemination algorithm: ⌈log₂ n⌉
// rounds of staggered zero-byte exchanges).
func (r *Rank) Barrier() {
	n := r.Size()
	r.emitColl("barrier", 0, func() {
		if n == 1 {
			return
		}
		for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
			dst := (r.id + dist) % n
			src := (r.id - dist + n) % n
			r.SendRecv(dst, 0, src, 0, r.collTag(round))
		}
		r.nextColl()
	})
}

// Bcast broadcasts bytes from root via a binomial tree.
func (r *Rank) Bcast(root, bytes int) {
	n := r.Size()
	r.emitColl("bcast", bytes, func() {
		if n == 1 {
			return
		}
		// Relative rank with root mapped to 0.
		rel := (r.id - root + n) % n
		// Receive from parent (highest set bit), then forward to children.
		if rel != 0 {
			parentRel := rel &^ (1 << (bitLen(rel) - 1))
			parent := (parentRel + root) % n
			r.Recv(parent, r.collTag(0))
		}
		for dist := nextPow2(rel + 1); rel+dist < n; dist *= 2 {
			child := (rel + dist + root) % n
			r.Send(child, r.collTag(0), bytes)
		}
		r.nextColl()
	})
}

// Reduce combines bytes from every rank at root (binomial tree, leaves
// inward). The reduction compute itself is charged by the caller's
// workload model; this models only the message traffic.
func (r *Rank) Reduce(root, bytes int) {
	n := r.Size()
	r.emitColl("reduce", bytes, func() {
		if n == 1 {
			return
		}
		rel := (r.id - root + n) % n
		for dist := 1; dist < n; dist *= 2 {
			if rel&dist != 0 {
				parent := (rel - dist + root) % n
				r.Send(parent, r.collTag(dist), bytes)
				break
			}
			if rel+dist < n {
				child := (rel + dist + root) % n
				r.Recv(child, r.collTag(dist))
			}
		}
		r.nextColl()
	})
}

// Allreduce combines bytes across all ranks (recursive doubling for
// power-of-two worlds; fall back to Reduce+Bcast otherwise).
func (r *Rank) Allreduce(bytes int) {
	n := r.Size()
	if n&(n-1) != 0 {
		r.emitColl("allreduce", bytes, func() {
			r.reduceNoEmit(0, bytes)
			r.bcastNoEmit(0, bytes)
		})
		return
	}
	r.emitColl("allreduce", bytes, func() {
		for round, dist := 0, 1; dist < n; round, dist = round+1, dist*2 {
			partner := r.id ^ dist
			r.SendRecv(partner, bytes, partner, bytes, r.collTag(round))
		}
		r.nextColl()
	})
}

func (r *Rank) reduceNoEmit(root, bytes int) {
	n := r.Size()
	rel := (r.id - root + n) % n
	for dist := 1; dist < n; dist *= 2 {
		if rel&dist != 0 {
			r.Send((rel-dist+root)%n, r.collTag(dist), bytes)
			break
		}
		if rel+dist < n {
			r.Recv((rel+dist+root)%n, r.collTag(dist))
		}
	}
	r.nextColl()
}

func (r *Rank) bcastNoEmit(root, bytes int) {
	n := r.Size()
	rel := (r.id - root + n) % n
	if rel != 0 {
		parentRel := rel &^ (1 << (bitLen(rel) - 1))
		r.Recv((parentRel+root)%n, r.collTag(0))
	}
	for dist := nextPow2(rel + 1); rel+dist < n; dist *= 2 {
		r.Send((rel+dist+root)%n, r.collTag(0), bytes)
	}
	r.nextColl()
}

// Alltoall exchanges bytesPerPair with every other rank (pairwise
// exchange: n−1 rounds of SendRecv with rotating partners). This is the
// operation that dominates FT.
func (r *Rank) Alltoall(bytesPerPair int) {
	n := r.Size()
	r.emitColl("alltoall", bytesPerPair*(n-1), func() {
		for i := 1; i < n; i++ {
			dst := (r.id + i) % n
			src := (r.id - i + n) % n
			r.SendRecv(dst, bytesPerPair, src, bytesPerPair, r.collTag(i))
		}
		r.nextColl()
	})
}

// Alltoallv exchanges bytesTo[d] with each destination d, posting all
// operations at once the way MPICH 1.2.5 implements MPI_Alltoallv — the
// bursty injection that triggers receive-port contention for IS.
func (r *Rank) Alltoallv(bytesTo []int) {
	n := r.Size()
	if len(bytesTo) != n {
		panic("mpisim: Alltoallv size mismatch")
	}
	total := 0
	for _, b := range bytesTo {
		total += b
	}
	r.emitColl("alltoallv", total, func() {
		reqs := r.reqs[:0]
		for i := 1; i < n; i++ {
			src := (r.id - i + n) % n
			reqs = append(reqs, r.Irecv(src, r.collTag(0)))
		}
		for i := 1; i < n; i++ {
			dst := (r.id + i) % n
			reqs = append(reqs, r.Isend(dst, r.collTag(0), bytesTo[dst]))
		}
		r.reqs = reqs
		r.WaitAll(reqs...)
		r.nextColl()
	})
}

// Gather collects bytes from every rank at root (flat tree, as in small
// MPICH gathers).
func (r *Rank) Gather(root, bytes int) {
	n := r.Size()
	r.emitColl("gather", bytes, func() {
		if r.id == root {
			reqs := r.reqs[:0]
			for src := 0; src < n; src++ {
				if src == root {
					continue
				}
				reqs = append(reqs, r.Irecv(src, r.collTag(0)))
			}
			r.reqs = reqs
			r.WaitAll(reqs...)
		} else {
			r.Send(root, r.collTag(0), bytes)
		}
		r.nextColl()
	})
}

// WaitUntil idles the rank until absolute time t (used by tests and
// synthetic workloads).
func (r *Rank) WaitUntil(t sim.Time) {
	if t <= r.Now() {
		return
	}
	r.proc.Sleep(t.Sub(r.Now()))
}

func bitLen(x int) int {
	n := 0
	for x > 0 {
		x >>= 1
		n++
	}
	return n
}

func nextPow2(x int) int {
	p := 1
	for p < x {
		p *= 2
	}
	return p
}
