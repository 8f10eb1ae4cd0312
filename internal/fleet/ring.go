package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// replicas is the virtual-point count per backend on the hash ring.
const replicas = 64

// ring is a consistent-hash ring over backend indices. Each backend owns
// `replicas` virtual points, hashed from its URL, so cell keys spread
// roughly evenly and — crucially — a backend joining or leaving the live
// set only remaps the keys it owned: every other key keeps routing to
// the backend whose memo cache is already warm for it.
//
// The ring itself is immutable after construction (membership is fixed
// at gateway start); liveness churn is handled above it, by filtering
// the walk order against the pool's probe state. That keeps the
// consistent-hash property for ejection too: when a backend is ejected,
// its keys slide to the next point on the ring and everyone else's stay
// put.
type ring struct {
	points []ringPoint // sorted by hash
	n      int         // distinct backends
}

type ringPoint struct {
	hash    uint64
	backend int
}

// hashString is truncated SHA-256: uniformly mixed (weaker fast hashes
// cluster the virtual points and collapse the load split) and stable
// across processes — the same cell key must pick the same backend on
// every gateway replica. Routing cost is irrelevant next to the HTTP
// round trip it fronts.
func hashString(s string) uint64 {
	sum := sha256.Sum256([]byte(s))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing builds the ring for n backends named by urls, replicas virtual
// points each (point i of backend u hashes "u#i").
func newRing(urls []string) *ring {
	r := &ring{points: make([]ringPoint, 0, len(urls)*replicas), n: len(urls)}
	for b, u := range urls {
		for i := 0; i < replicas; i++ {
			r.points = append(r.points, ringPoint{
				hash:    hashString(u + "#" + strconv.Itoa(i)),
				backend: b,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
	return r
}

// seq returns all distinct backends in ring-walk order starting at the
// key's hash: seq[0] is the cell's home backend, seq[1] the first
// failover target, and so on. The full order is returned (not just the
// live prefix) so the caller can filter against current probe state.
func (r *ring) seq(key string) []int {
	return r.seqFrom(hashString(key))
}

func (r *ring) seqFrom(h uint64) []int {
	out := make([]int, 0, r.n)
	if len(r.points) == 0 {
		return out
	}
	seen := make([]bool, r.n)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	for i := 0; len(out) < r.n && i < len(r.points); i++ {
		p := r.points[(start+i)%len(r.points)]
		if !seen[p.backend] {
			seen[p.backend] = true
			out = append(out, p.backend)
		}
	}
	return out
}
