package mpisim

// Additional collectives beyond the NPB core set, completing the MPI-1
// surface a scientific code realistically touches.

// Allgather distributes each rank's bytes block to every other rank
// (ring algorithm: n−1 steps, each forwarding the newest block — the
// bandwidth-optimal choice for large blocks).
func (r *Rank) Allgather(bytes int) {
	n := r.Size()
	r.emitColl("allgather", bytes*n, func() {
		if n == 1 {
			r.nextColl()
			return
		}
		next := (r.id + 1) % n
		prev := (r.id - 1 + n) % n
		for step := 0; step < n-1; step++ {
			r.SendRecv(next, bytes, prev, bytes, r.collTag(step))
		}
		r.nextColl()
	})
}

// Scatter sends a distinct bytes block from root to each rank (flat tree,
// matching small-message MPICH scatters).
func (r *Rank) Scatter(root, bytes int) {
	n := r.Size()
	r.emitColl("scatter", bytes, func() {
		if n == 1 {
			r.nextColl()
			return
		}
		if r.id == root {
			for dst := 0; dst < n; dst++ {
				if dst != root {
					r.Send(dst, r.collTag(0), bytes)
				}
			}
		} else {
			r.Recv(root, r.collTag(0))
		}
		r.nextColl()
	})
}

// ReduceScatter reduces a vector across all ranks and leaves each rank
// with its bytes-sized block (pairwise exchange: n−1 steps of
// halving-style traffic; here modeled as each rank sending its block
// contribution to the owner).
func (r *Rank) ReduceScatter(bytes int) {
	n := r.Size()
	r.emitColl("reducescatter", bytes*n, func() {
		if n == 1 {
			r.nextColl()
			return
		}
		// Pairwise: rank i sends block j to rank j, receives its own
		// block's contributions — realized as n−1 staggered sendrecvs.
		for step := 1; step < n; step++ {
			dst := (r.id + step) % n
			src := (r.id - step + n) % n
			r.SendRecv(dst, bytes, src, bytes, r.collTag(step))
		}
		r.nextColl()
	})
}

// Scan computes a prefix reduction: rank i receives from i−1, combines,
// and forwards to i+1 (the linear MPI_Scan pipeline).
func (r *Rank) Scan(bytes int) {
	n := r.Size()
	r.emitColl("scan", bytes, func() {
		if n == 1 {
			r.nextColl()
			return
		}
		tag := r.collTag(0)
		if r.id > 0 {
			r.Recv(r.id-1, tag)
		}
		if r.id < n-1 {
			r.Send(r.id+1, tag, bytes)
		}
		r.nextColl()
	})
}
