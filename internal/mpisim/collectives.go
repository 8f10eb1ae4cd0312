package mpisim

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

// Allreduce combines bytes across all ranks: recursive doubling for
// power-of-two worlds, otherwise a binomial-tree reduce to rank 0 followed
// by a binomial-tree broadcast from it. The reduction compute itself is
// charged by the caller's workload model; this models only the message
// traffic.
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
