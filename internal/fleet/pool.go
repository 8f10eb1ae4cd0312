package fleet

import (
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// backend is one dvsd instance and its gateway-side state: probe-derived
// liveness plus the counters the per-backend /metrics series render.
type backend struct {
	url string

	up          atomic.Bool
	consecFails atomic.Int32

	requests atomic.Int64 // cell forwards attempted against this backend
	failures atomic.Int64 // forwards that failed (transport or shed)
	probes   atomic.Int64 // health probes sent
	probeErr atomic.Int64 // health probes failed

	lat obs.Histogram // successful cell forward latency
}

// markFailure records one failed interaction (probe or data path) and
// ejects the backend once the consecutive-failure threshold is reached.
// Data-path failures count too, so a backend that dies mid-sweep is
// ejected by the very cells it failed rather than waiting out a probe
// period.
func (b *backend) markFailure(threshold int32) {
	if b.consecFails.Add(1) >= threshold {
		b.up.Store(false)
	}
}

// markSuccess re-admits the backend: any successful interaction is proof
// of life.
func (b *backend) markSuccess() {
	b.consecFails.Store(0)
	b.up.Store(true)
}

// Pool is the health-checked backend set: fixed membership, probed
// liveness, and a consistent-hash ring for placement. Safe for
// concurrent use.
type Pool struct {
	backends []*backend
	ring     *ring
	client   *http.Client

	probeTimeout time.Duration
	failAfter    int32

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// newPool builds a pool over the peer URLs. Backends start optimistically
// live so the first request after start does not wait a probe period;
// the initial synchronous probe round in start corrects that within one
// probe timeout.
func newPool(peers []string, failAfter int, probeTimeout time.Duration, client *http.Client) *Pool {
	p := &Pool{
		backends:     make([]*backend, len(peers)),
		ring:         newRing(peers),
		client:       client,
		probeTimeout: probeTimeout,
		failAfter:    int32(failAfter),
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	for i, u := range peers {
		p.backends[i] = &backend{url: u}
		p.backends[i].up.Store(true)
	}
	return p
}

// start probes every backend once, synchronously, then keeps probing on
// the interval until stopClose.
func (p *Pool) start(interval time.Duration) {
	p.started.Store(true)
	p.probeAll()
	go func() {
		defer close(p.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-p.stop:
				return
			case <-t.C:
				p.probeAll()
			}
		}
	}()
}

func (p *Pool) stopClose() {
	p.stopOnce.Do(func() { close(p.stop) })
	if p.started.Load() {
		<-p.done
	}
}

// probeAll runs one concurrent probe round.
func (p *Pool) probeAll() {
	var wg sync.WaitGroup
	for _, b := range p.backends {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			p.probe(b)
		}(b)
	}
	wg.Wait()
}

// probe GETs the backend's /healthz; any 200 re-admits it, anything else
// counts toward ejection.
func (p *Pool) probe(b *backend) {
	b.probes.Add(1)
	ctx, cancel := context.WithTimeout(context.Background(), p.probeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.url+"/healthz", nil)
	if err != nil {
		b.probeErr.Add(1)
		b.markFailure(p.failAfter)
		return
	}
	resp, err := p.client.Do(req)
	if err != nil {
		b.probeErr.Add(1)
		b.markFailure(p.failAfter)
		return
	}
	// Drain the (small, bounded) body before closing: an unread body
	// makes the transport drop the connection, so every probe round
	// would re-dial each backend instead of reusing its idle connection.
	_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.probeErr.Add(1)
		b.markFailure(p.failAfter)
		return
	}
	b.markSuccess()
}

// order returns the live backends to try for a cell key, in failover
// order: the consistent-hash ring walked from the key's point, so a
// repeated cell lands on the backend whose memo cache holds it (and has a
// deterministic failover successor). Only keyed cells are forwarded
// (sweep.Cell.Body).
func (p *Pool) order(key string) []*backend {
	seq := p.ring.seq(key)
	out := make([]*backend, 0, len(seq))
	for _, i := range seq {
		if p.backends[i].up.Load() {
			out = append(out, p.backends[i])
		}
	}
	return out
}

// live counts currently-admitted backends.
func (p *Pool) live() int {
	n := 0
	for _, b := range p.backends {
		if b.up.Load() {
			n++
		}
	}
	return n
}
