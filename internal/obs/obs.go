// Package obs is the observability layer: lightweight span-based tracing
// threaded through the request path via context.Context, so one sweep
// cell's journey — gateway admission, route/retry/shed/hedge decisions,
// backend forwarding, dvsd admission, runner cache resolution, and the
// sim kernel's phase boundaries — is reconstructable after the fact.
//
// The design optimizes for the disabled case: a context that carries no
// tracer and no span makes every obs call a no-op on a nil *Span, with
// zero allocations, so the library's hot paths (the sim kernel, the
// sweep engine) pay nothing when tracing is off. When a Tracer is
// installed, each root span owns one Trace; child spans append to it as
// they end, and when the root ends the finished trace is published to a
// bounded ring buffer served as JSON by DebugHandler (/debug/traces).
//
// Cross-process stitching uses the W3C Trace Context contract: Inject
// writes a `traceparent` header (00-<trace-id>-<span-id>-01) on outbound
// requests and Tracer.StartRequest joins the caller's trace when the
// inbound header parses, so a gateway span and the backend spans it
// caused share one trace ID and consistent parent IDs even though each
// process keeps its own ring.
//
// The package also holds the daemons' one metrics registry (Registry,
// metrics.go), which /metrics renders in the Prometheus text format.
package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// maxSpansPerTrace bounds one trace's span list so a pathological request
// (a giant sweep, a retry storm) cannot grow a trace without limit; spans
// beyond it are counted, not stored.
const maxSpansPerTrace = 512

// idState seeds span/trace ID generation: a crypto-random base advanced
// by a Weyl increment and finalized with splitmix64, so IDs are unique
// within a process and collide across processes with negligible
// probability — without taking a lock or draining entropy per span.
var idState atomic.Uint64

func init() {
	var b [8]byte
	if _, err := crand.Read(b[:]); err == nil {
		idState.Store(binary.LittleEndian.Uint64(b[:]))
	} else {
		idState.Store(uint64(time.Now().UnixNano()))
	}
}

func nextID() uint64 {
	x := idState.Add(0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e9b5
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	if x == 0 {
		x = 1 // the all-zero ID is invalid in the W3C contract
	}
	return x
}

const hexDigits = "0123456789abcdef"

func hexN(buf []byte, x uint64) {
	for i := len(buf) - 1; i >= 0; i-- {
		buf[i] = hexDigits[x&0xf]
		x >>= 4
	}
}

func newSpanID() string {
	var b [16]byte
	hexN(b[:], nextID())
	return string(b[:])
}

func newTraceID() string {
	var b [32]byte
	hexN(b[:16], nextID())
	hexN(b[16:], nextID())
	return string(b[:])
}

// Event is a timestamped point annotation on a span, recorded as an
// offset from the span's start.
type Event struct {
	Name string  `json:"name"`
	AtMS float64 `json:"at_ms"`
}

// SpanData is a span's immutable record once the span has ended — the
// JSON shape /debug/traces serves.
type SpanData struct {
	SpanID     string            `json:"span_id"`
	ParentID   string            `json:"parent_id,omitempty"`
	Name       string            `json:"name"`
	Start      time.Time         `json:"start"`
	DurationMS float64           `json:"duration_ms"`
	Attrs      map[string]string `json:"attrs,omitempty"`
	Events     []Event           `json:"events,omitempty"`
}

// Trace collects the spans of one trace as they end. It stays internal
// while open; the ring publishes it once the root span ends. Late spans
// (a hedge loser finishing after its cell's root) still append safely —
// the collection lock is shared with the snapshot path.
type Trace struct {
	id    string
	proc  string
	root  string
	start time.Time

	mu         sync.Mutex
	spans      []SpanData
	dropped    int
	durationMS float64
}

func (tr *Trace) add(d SpanData, isRoot bool, end time.Time) {
	tr.mu.Lock()
	if len(tr.spans) < maxSpansPerTrace {
		tr.spans = append(tr.spans, d)
	} else {
		tr.dropped++
	}
	if isRoot {
		tr.durationMS = float64(end.Sub(tr.start)) / 1e6
	}
	tr.mu.Unlock()
}

// Span is one timed operation within a trace. All methods are safe on a
// nil receiver — the disabled-tracing representation — so call sites
// never branch on whether tracing is on. A span is owned by the
// goroutine that started it; the internal lock only protects against a
// straggler annotating concurrently with End (hedged requests).
type Span struct {
	tracer *Tracer
	trace  *Trace
	isRoot bool
	start  time.Time

	mu    sync.Mutex
	ended bool
	data  SpanData
}

// TraceID returns the span's 32-hex trace ID ("" on nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.trace.id
}

// SpanID returns the span's 16-hex ID ("" on nil).
func (s *Span) SpanID() string {
	if s == nil {
		return ""
	}
	return s.data.SpanID
}

// SetAttr records a key/value annotation. No-op after End.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		if s.data.Attrs == nil {
			s.data.Attrs = make(map[string]string, 4)
		}
		s.data.Attrs[key] = value
	}
	s.mu.Unlock()
}

// Event records a timestamped point annotation. No-op after End.
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if !s.ended {
		s.data.Events = append(s.data.Events,
			Event{Name: name, AtMS: float64(time.Since(s.start)) / 1e6})
	}
	s.mu.Unlock()
}

// End closes the span, appends its record to the owning trace, and — for
// a root span — publishes the finished trace to the tracer's ring.
// Idempotent; later calls are no-ops.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.data.DurationMS = float64(end.Sub(s.start)) / 1e6
	data := s.data
	s.mu.Unlock()
	s.trace.add(data, s.isRoot, end)
	if s.isRoot {
		s.tracer.store(s.trace)
	}
}

func (s *Span) newChild(name string, at time.Time) *Span {
	if at.IsZero() {
		at = time.Now()
	}
	return &Span{
		tracer: s.tracer,
		trace:  s.trace,
		start:  at,
		data: SpanData{
			SpanID:   newSpanID(),
			ParentID: s.data.SpanID,
			Name:     name,
			Start:    at,
		},
	}
}

// Tracer owns a bounded ring of finished traces for one process. A nil
// *Tracer is the disabled tracer: every method no-ops and every span it
// would create is nil.
type Tracer struct {
	proc string

	mu   sync.Mutex
	ring []*Trace
	next int
	size int
}

// New builds a tracer whose ring keeps the last `buffer` finished
// traces; buffer <= 0 returns nil, the disabled tracer.
func New(proc string, buffer int) *Tracer {
	if buffer <= 0 {
		return nil
	}
	return &Tracer{proc: proc, ring: make([]*Trace, buffer)}
}

func (t *Tracer) store(tr *Trace) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.ring[t.next] = tr
	t.next = (t.next + 1) % len(t.ring)
	if t.size < len(t.ring) {
		t.size++
	}
	t.mu.Unlock()
}

func (t *Tracer) newRoot(name string, at time.Time, traceID, parentID string) *Span {
	if t == nil {
		return nil
	}
	if at.IsZero() {
		at = time.Now()
	}
	if traceID == "" {
		traceID = newTraceID()
	}
	tr := &Trace{id: traceID, proc: t.proc, root: name, start: at}
	return &Span{
		tracer: t,
		trace:  tr,
		isRoot: true,
		start:  at,
		data: SpanData{
			SpanID:   newSpanID(),
			ParentID: parentID,
			Name:     name,
			Start:    at,
		},
	}
}

type ctxKey int

const (
	tracerKey ctxKey = iota
	spanKey
)

// WithTracer returns ctx carrying t, so Start can open root spans for
// work that has no parent span yet (one trace per sweep cell). A nil
// tracer returns ctx unchanged.
func WithTracer(ctx context.Context, t *Tracer) context.Context {
	if t == nil {
		return ctx
	}
	return context.WithValue(ctx, tracerKey, t)
}

// TracerFrom returns the tracer carried by ctx, or nil.
func TracerFrom(ctx context.Context) *Tracer {
	t, _ := ctx.Value(tracerKey).(*Tracer)
	return t
}

// SpanFrom returns the active span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey).(*Span)
	return s
}

// Start opens a span named name: a child of the context's active span if
// one exists, else a new root trace if the context carries a tracer,
// else nothing — (ctx, nil) with zero allocations, the disabled path.
func Start(ctx context.Context, name string) (context.Context, *Span) {
	return StartAt(ctx, name, time.Time{})
}

// StartAt is Start with an explicit start time (zero means now), for
// spans that logically began before they could be recorded — a queue
// wait measured from enqueue, observed at dequeue.
func StartAt(ctx context.Context, name string, at time.Time) (context.Context, *Span) {
	if parent := SpanFrom(ctx); parent != nil {
		sp := parent.newChild(name, at)
		return context.WithValue(ctx, spanKey, sp), sp
	}
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	sp := t.newRoot(name, at, "", "")
	return context.WithValue(ctx, spanKey, sp), sp
}

// StartRequest opens the root span of one inbound request, joining the
// caller's trace when tp carries a valid W3C traceparent (the stitching
// contract: this root's parent ID is the caller's span, and both sides'
// rings record the same trace ID). The returned context carries both the
// tracer and the span.
func (t *Tracer) StartRequest(ctx context.Context, name, tp string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	traceID, parentID, _ := ParseTraceparent(tp)
	sp := t.newRoot(name, time.Time{}, traceID, parentID)
	ctx = context.WithValue(ctx, tracerKey, t)
	return context.WithValue(ctx, spanKey, sp), sp
}

// Traceparent renders the span's W3C traceparent header value
// (version 00, sampled), "" for a nil span.
func Traceparent(sp *Span) string {
	if sp == nil {
		return ""
	}
	return "00-" + sp.trace.id + "-" + sp.data.SpanID + "-01"
}

// Inject sets the traceparent header on an outbound request so the
// receiving process's spans stitch under this span. No-op on nil.
func Inject(sp *Span, h http.Header) {
	if sp == nil {
		return
	}
	h.Set("traceparent", Traceparent(sp))
}

func isLowerHex(s string) bool {
	nonzero := false
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			nonzero = true
		}
	}
	return nonzero
}

// ParseTraceparent decodes a W3C traceparent header value. Only the
// 00-version layout is accepted; malformed or all-zero IDs report
// ok=false, and the caller starts a fresh trace instead.
func ParseTraceparent(h string) (traceID, spanID string, ok bool) {
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return "", "", false
	}
	traceID, spanID = h[3:35], h[36:52]
	if !isLowerHex(traceID) || !isLowerHex(spanID) {
		return "", "", false
	}
	return traceID, spanID, true
}
