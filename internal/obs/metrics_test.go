package obs

import (
	"bytes"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestRegistryText pins the exposition: families in registration order,
// series sorted by label values, integral gauges as integers, and
// histograms with cumulative buckets, +Inf equal to the count.
func TestRegistryText(t *testing.T) {
	var r Registry
	req := r.Counter("x_requests_total", "Requests.", "path", "status")
	lat := r.Histogram("x_request_seconds", "Latency.", "path")
	r.Gauge("x_ratio", "Ratio.").Set(Func(func() float64 { return 0.5 }))
	r.Gauge("x_bytes", "Bytes.").Set(Func(func() float64 { return 123456789 }))

	req.Counter("/sweep", "200").Add(1)
	req.Counter("/simulate", "400").Add(1)
	req.Counter("/simulate", "200").Add(2)
	if req.Counter("/simulate", "200") != req.Counter("/simulate", "200") {
		t.Fatal("Counter does not return the existing series")
	}
	h := lat.Histogram("/simulate")
	h.Observe(500 * time.Microsecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Minute)

	var buf bytes.Buffer
	r.WriteText(&buf)
	want := `# HELP x_requests_total Requests.
# TYPE x_requests_total counter
x_requests_total{path="/simulate",status="200"} 2
x_requests_total{path="/simulate",status="400"} 1
x_requests_total{path="/sweep",status="200"} 1
# HELP x_request_seconds Latency.
# TYPE x_request_seconds histogram
x_request_seconds_bucket{path="/simulate",le="0.001"} 1
x_request_seconds_bucket{path="/simulate",le="0.005"} 2
x_request_seconds_bucket{path="/simulate",le="0.025"} 2
x_request_seconds_bucket{path="/simulate",le="0.1"} 2
x_request_seconds_bucket{path="/simulate",le="0.5"} 2
x_request_seconds_bucket{path="/simulate",le="2.5"} 2
x_request_seconds_bucket{path="/simulate",le="10"} 2
x_request_seconds_bucket{path="/simulate",le="60"} 2
x_request_seconds_bucket{path="/simulate",le="+Inf"} 3
x_request_seconds_sum{path="/simulate"} 120.0035
x_request_seconds_count{path="/simulate"} 3
# HELP x_ratio Ratio.
# TYPE x_ratio gauge
x_ratio 0.5
# HELP x_bytes Bytes.
# TYPE x_bytes gauge
x_bytes 123456789
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}

// TestRegistryUnlabelledHistogramAndQuoting: an unlabelled histogram's
// buckets carry only le, and label values are quoted.
func TestRegistryUnlabelledHistogramAndQuoting(t *testing.T) {
	var r Registry
	r.Histogram("x_seconds", "H.").Histogram().Observe(time.Second)
	r.Counter("x_total", "C.", "backend").Counter(`a"b`).Add(1)
	var buf bytes.Buffer
	r.WriteText(&buf)
	for _, want := range []string{
		`x_seconds_bucket{le="2.5"} 1`,
		"x_seconds_sum 1\n",
		"x_seconds_count 1\n",
		`x_total{backend="a\"b"} 1`,
	} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("missing %q in:\n%s", want, buf.String())
		}
	}
}

// TestRegistryMisuse: a wrong label count and a second Set of the same
// series are programming errors and panic.
func TestRegistryMisuse(t *testing.T) {
	var r Registry
	f := r.Counter("x_total", "C.", "path")
	mustPanic(t, "wrong label count", func() { f.Counter() })
	f.Set(new(Counter), "/a")
	mustPanic(t, "second Set", func() { f.Set(new(Counter), "/a") })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
}

// TestRegistryConcurrent exercises get-or-create, observation and
// rendering at once (run under -race).
func TestRegistryConcurrent(t *testing.T) {
	var r Registry
	c := r.Counter("x_total", "C.", "path")
	h := r.Histogram("x_seconds", "H.", "path")
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Counter("/p").Add(1)
				h.Histogram("/p").Observe(time.Millisecond)
				if i%100 == 0 {
					r.WriteText(&bytes.Buffer{})
				}
			}
		}()
	}
	wg.Wait()
	if n := c.Counter("/p").Load(); n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}
}

// TestRegistryLookupDoesNotAllocate: the per-request series lookup is on
// every daemon request's path.
func TestRegistryLookupDoesNotAllocate(t *testing.T) {
	var r Registry
	f := r.Counter("x_total", "C.", "path", "status")
	f.Counter("/simulate", "200")
	if n := testing.AllocsPerRun(100, func() { f.Counter("/simulate", "200").Add(1) }); n != 0 {
		t.Fatalf("series lookup allocates %.0f times", n)
	}
}
