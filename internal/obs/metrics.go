package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is the daemons' metrics registry: families of labelled
// counters, gauges sampled at render time, and fixed-bucket latency
// histograms, rendered in the Prometheus text format in registration
// order. The zero value is ready to use; all methods are safe for
// concurrent use.
type Registry struct {
	mu   sync.Mutex
	fams []*Family
}

// Family is one named metric and its series, one per label-value tuple.
type Family struct {
	name, help, kind string
	labels           []string

	mu     sync.Mutex
	series map[string]*series // by label values joined with labelSep
}

type series struct {
	labels string // rendered `k="v",...`, "" when the family has no labels
	m      Metric
}

// Metric is one series' value: a *Counter, a *Histogram, or a Func.
type Metric interface {
	write(w io.Writer, name, labels string)
}

// Counter is a monotone count. It is an atomic.Int64, so hot paths pay
// one atomic add.
type Counter struct{ atomic.Int64 }

func (c *Counter) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %d\n", name, braces(labels), c.Load())
}

// Func is a series sampled when the registry renders, for figures whose
// owner already keeps them (queue depth, runner stats, probe state).
type Func func() float64

func (f Func) write(w io.Writer, name, labels string) {
	fmt.Fprintf(w, "%s%s %s\n", name, braces(labels), formatValue(f()))
}

// latencyBuckets are the histogram upper bounds in seconds, spanning a
// cache hit (~100 µs) to a class-C sweep (minutes). The implicit +Inf
// bucket is the total count.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// Histogram is a lock-free fixed-bucket latency histogram, cheap enough
// for a per-request or per-cell path.
type Histogram struct {
	counts [len(latencyBuckets) + 1]atomic.Int64 // last = +Inf overflow
	sumNS  atomic.Int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[sort.SearchFloat64s(latencyBuckets[:], d.Seconds())].Add(1)
	h.sumNS.Add(int64(d))
}

func (h *Histogram) write(w io.Writer, name, labels string) {
	sep := ""
	if labels != "" {
		sep = ","
	}
	var cum int64
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{%s%sle=\"%g\"} %d\n", name, labels, sep, le, cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{%s%sle=\"+Inf\"} %d\n", name, labels, sep, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, braces(labels), float64(h.sumNS.Load())/1e9)
	fmt.Fprintf(w, "%s_count%s %d\n", name, braces(labels), cum)
}

// Counter registers a counter family with the given label names.
func (r *Registry) Counter(name, help string, labels ...string) *Family {
	return r.add(name, help, "counter", labels)
}

// Gauge registers a gauge family; its series are Funcs.
func (r *Registry) Gauge(name, help string, labels ...string) *Family {
	return r.add(name, help, "gauge", labels)
}

// Histogram registers a latency histogram family.
func (r *Registry) Histogram(name, help string, labels ...string) *Family {
	return r.add(name, help, "histogram", labels)
}

func (r *Registry) add(name, help, kind string, labels []string) *Family {
	f := &Family{name: name, help: help, kind: kind, labels: labels, series: map[string]*series{}}
	r.mu.Lock()
	r.fams = append(r.fams, f)
	r.mu.Unlock()
	return f
}

// labelSep joins label values into a series key; it cannot occur in
// valid UTF-8.
const labelSep = 0xff

// Counter returns the family's counter for the label values, creating it
// on first use.
func (f *Family) Counter(values ...string) *Counter {
	return f.get(values, func() Metric { return new(Counter) }).(*Counter)
}

// Histogram returns the family's histogram for the label values,
// creating it on first use.
func (f *Family) Histogram(values ...string) *Histogram {
	return f.get(values, func() Metric { return new(Histogram) }).(*Histogram)
}

// Set installs m, which its owner keeps updating, as the series for the
// label values. Each label-value tuple can be set once.
func (f *Family) Set(m Metric, values ...string) {
	set := false
	f.get(values, func() Metric { set = true; return m })
	if !set {
		panic(fmt.Sprintf("obs: %s%v set twice", f.name, values))
	}
}

// get looks the series up by its values, creating it with mk when absent.
// The lookup itself does not allocate.
func (f *Family) get(values []string, mk func() Metric) Metric {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var buf [64]byte
	key := buf[:0]
	for _, v := range values {
		key = append(append(key, v...), labelSep)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[string(key)]; ok {
		return s.m
	}
	pairs := make([]string, len(values))
	for i, v := range values {
		pairs[i] = f.labels[i] + "=" + strconv.Quote(v)
	}
	s := &series{labels: strings.Join(pairs, ","), m: mk()}
	f.series[string(key)] = s
	return s.m
}

// WriteText renders every family in the Prometheus text exposition
// format: families in registration order, series sorted by label values.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	fams := append([]*Family(nil), r.fams...)
	r.mu.Unlock()
	for _, f := range fams {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.mu.Lock()
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ss := make([]*series, len(keys))
		for i, k := range keys {
			ss[i] = f.series[k]
		}
		f.mu.Unlock()
		for _, s := range ss {
			s.m.write(w, f.name, s.labels)
		}
	}
}

func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// formatValue renders integral values as integers (gauges of counts and
// bytes read naturally) and anything else in shortest %g form.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1<<53 {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
