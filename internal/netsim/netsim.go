// Package netsim models the cluster interconnect: a single store-and-forward
// switch (the paper's Cisco Catalyst 2950) with one full-duplex 100 Mb/s
// port per node.
//
// A message from src to dst serializes on the sender's uplink, crosses the
// switch after a fixed latency, and serializes again on the receiver's
// downlink, which is the point of contention for many-to-one patterns
// (all-to-all, reductions). When the receive-side backlog exceeds a
// configurable window the model charges an additional backoff penalty per
// excess message, reproducing the collision/retransmission behaviour the
// paper observed ("within a busy network, higher frequency may increase the
// probability of traffic collision and result [in] longer waiting time for
// packet retransmission", §5.2): faster CPUs inject bursts that overflow
// the window, slower CPUs self-pace.
package netsim

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/sim"
)

// Config parameterizes the interconnect; New takes the port count.
type Config struct {
	BandwidthBps float64       // per-port, each direction (100 Mb/s)
	Latency      time.Duration // fixed per-message switch+stack latency
	// CongestionWindow is the number of messages that may be queued on a
	// receive port before backoff penalties kick in.
	CongestionWindow int
	// BackoffPerMsg is the extra delay charged per queued message beyond
	// the window (collision + retransmission cost).
	BackoffPerMsg time.Duration
	// Topology selects the switch structure; TwoTier adds shared leaf
	// uplinks (see topology.go).
	Topology Topology
	TwoTier  TwoTierConfig
	// LossRate is the per-message probability of loss; each loss costs a
	// retransmission timeout plus a full resend. Used for failure
	// injection — DVS scheduling results should be robust to flaky links.
	LossRate float64
	// RetransmitTimeout is the cost of detecting one loss (TCP RTO).
	RetransmitTimeout time.Duration
	// Seed drives the loss process; runs with the same seed are identical.
	Seed int64
}

// DefaultConfig returns the NEMO interconnect: 100 Mb/s ports with ~60 µs
// end-to-end small-message latency (MPICH 1.2.5 over TCP).
func DefaultConfig() Config {
	return Config{
		BandwidthBps:     100e6,
		Latency:          60 * time.Microsecond,
		CongestionWindow: 6,
		BackoffPerMsg:    200 * time.Microsecond,
	}
}

// Stats aggregates traffic counters.
type Stats struct {
	Messages    int
	Bytes       int64
	Collisions  int           // messages that paid a backoff penalty
	Backoff     time.Duration // total backoff charged
	Retransmits int           // messages resent after injected loss
}

// Network is the switch plus per-node links. Methods must be called from
// procs/callbacks of the owning kernel.
type Network struct {
	k      *sim.Kernel
	cfg    Config
	txFree []sim.Time // sender uplink free-at
	rxFree []sim.Time // receiver downlink free-at
	// rxQueue tracks, per port, the messages still "in flight" toward
	// that port (arrival time + sender), to measure instantaneous backlog.
	rxQueue [][]inflight
	// leafUpFree/leafDownFree are the shared per-leaf uplink/downlink
	// free-at times for the TwoTier topology.
	leafUpFree   []sim.Time
	leafDownFree []sim.Time
	rng          *rand.Rand
	stats        Stats
}

// New builds a network of one port per node on kernel k.
func New(k *sim.Kernel, nodes int, cfg Config) (*Network, error) {
	if nodes <= 0 {
		return nil, fmt.Errorf("netsim: need at least one node, got %d", nodes)
	}
	if cfg.BandwidthBps <= 0 {
		return nil, fmt.Errorf("netsim: bandwidth must be positive")
	}
	if cfg.Latency < 0 || cfg.BackoffPerMsg < 0 || cfg.CongestionWindow < 0 {
		return nil, fmt.Errorf("netsim: negative parameter")
	}
	if err := cfg.validateTopology(); err != nil {
		return nil, err
	}
	if cfg.LossRate < 0 || cfg.LossRate >= 1 {
		return nil, fmt.Errorf("netsim: loss rate must be in [0, 1)")
	}
	if cfg.LossRate > 0 && cfg.RetransmitTimeout <= 0 {
		return nil, fmt.Errorf("netsim: loss injection needs a positive retransmit timeout")
	}
	n := &Network{
		k:       k,
		cfg:     cfg,
		txFree:  make([]sim.Time, nodes),
		rxFree:  make([]sim.Time, nodes),
		rxQueue: make([][]inflight, nodes),
	}
	if cfg.Topology == TwoTier {
		leaves := (nodes + cfg.TwoTier.LeafPorts - 1) / cfg.TwoTier.LeafPorts
		n.leafUpFree = make([]sim.Time, leaves)
		n.leafDownFree = make([]sim.Time, leaves)
	}
	if cfg.LossRate > 0 {
		n.rng = rand.New(rand.NewSource(cfg.Seed))
	}
	return n, nil
}

// MustNew is New but panics on error.
func MustNew(k *sim.Kernel, nodes int, cfg Config) *Network {
	n, err := New(k, nodes, cfg)
	if err != nil {
		panic(err)
	}
	return n
}

// Nodes returns the number of ports.
func (n *Network) Nodes() int { return len(n.txFree) }

// Stats returns a copy of the traffic counters.
func (n *Network) Stats() Stats { return n.stats }

// serial returns the wire time of a payload.
func (n *Network) serial(bytes int) time.Duration {
	return time.Duration(float64(bytes) * 8 / n.cfg.BandwidthBps * 1e9)
}

// Transfer schedules a message of the given size from src to dst starting
// no earlier than now. It returns when the sender's uplink is free again
// (txDone — the sender may proceed) and when the message is fully delivered
// at dst (arrive). Loopback (src == dst) is a memcpy: half the wire time,
// no switch latency, no contention.
func (n *Network) Transfer(src, dst, bytes int) (txDone, arrive sim.Time, err error) {
	if src < 0 || src >= n.Nodes() || dst < 0 || dst >= n.Nodes() {
		return 0, 0, fmt.Errorf("netsim: transfer %d→%d outside %d-node network", src, dst, n.Nodes())
	}
	if bytes < 0 {
		return 0, 0, fmt.Errorf("netsim: negative message size %d", bytes)
	}
	now := n.k.Now()
	n.stats.Messages++
	n.stats.Bytes += int64(bytes)
	if src == dst {
		d := n.serial(bytes) / 2
		return now.Add(d), now.Add(d), nil
	}
	ser := n.serial(bytes)

	txStart := max(now, n.txFree[src])
	txDone = txStart.Add(ser)
	n.txFree[src] = txDone

	// Earliest the message can be fully off the switch onto dst's link.
	afterSwitch := txDone
	if n.cfg.Topology == TwoTier {
		if sl, dl := n.leafOf(src), n.leafOf(dst); sl != dl {
			afterSwitch = n.crossLeaf(sl, dl, bytes, txDone)
		}
	}
	rxReady := afterSwitch.Add(n.cfg.Latency)

	// Receive-port backlog: undelivered messages from competing senders.
	// A single sender streaming to one destination is a well-paced TCP
	// flow and never collides with itself.
	q := n.pruneRxQueue(dst, now)
	competing := 0
	for _, m := range q {
		if m.src != src {
			competing++
		}
	}
	var backoff time.Duration
	if excess := competing - n.cfg.CongestionWindow; excess > 0 {
		backoff = time.Duration(excess) * n.cfg.BackoffPerMsg
		n.stats.Collisions++
		n.stats.Backoff += backoff
	}

	prevFree := n.rxFree[dst]
	if prevFree < rxReady {
		arrive = rxReady.Add(backoff)
	} else {
		arrive = prevFree.Add(ser + backoff)
	}
	// Injected losses: each costs a retransmission timeout plus a resend
	// of the payload on the wire.
	if n.rng != nil {
		for n.rng.Float64() < n.cfg.LossRate {
			n.stats.Retransmits++
			arrive = arrive.Add(n.cfg.RetransmitTimeout + ser)
		}
	}
	n.rxFree[dst] = arrive
	n.rxQueue[dst] = append(q, inflight{at: arrive, src: src})
	return txDone, arrive, nil
}

// inflight is one undelivered message headed to a port.
type inflight struct {
	at  sim.Time
	src int
}

// pruneRxQueue drops already-delivered messages from dst's backlog list and
// returns the live slice.
func (n *Network) pruneRxQueue(dst int, now sim.Time) []inflight {
	q := n.rxQueue[dst][:0]
	for _, m := range n.rxQueue[dst] {
		if m.at > now {
			q = append(q, m)
		}
	}
	n.rxQueue[dst] = q
	return q
}
