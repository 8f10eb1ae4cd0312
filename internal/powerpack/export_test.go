package powerpack

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/sim"
)

// parseSamplesCSV decodes WriteSamplesCSV output back into samples.
func parseSamplesCSV(t *testing.T, buf *bytes.Buffer) []Sample {
	t.Helper()
	recs, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || strings.Join(recs[0], ",") != "node,at_ns,watts" {
		t.Fatalf("header = %v", recs)
	}
	out := make([]Sample, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		node, err1 := strconv.Atoi(rec[0])
		at, err2 := strconv.ParseInt(rec[1], 10, 64)
		watts, err3 := strconv.ParseFloat(rec[2], 64)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatalf("row %v does not parse", rec)
		}
		out = append(out, Sample{Node: node, At: sim.Time(at), Watts: watts})
	}
	return out
}

func TestSamplesCSVRoundTrip(t *testing.T) {
	in := []Sample{
		{Node: 0, At: sim.Time(1e9), Watts: 32.55},
		{Node: 1, At: sim.Time(1e9), Watts: 14.125},
		{Node: 0, At: sim.Time(2e9), Watts: 18},
	}
	var buf bytes.Buffer
	if err := WriteSamplesCSV(&buf, in); err != nil {
		t.Fatal(err)
	}
	out := parseSamplesCSV(t, &buf)
	if len(out) != len(in) {
		t.Fatalf("round-trip length %d", len(out))
	}
	for i := range in {
		if out[i].Node != in[i].Node || out[i].At != in[i].At ||
			math.Abs(out[i].Watts-in[i].Watts) > 1e-12 {
			t.Fatalf("row %d: %+v vs %+v", i, out[i], in[i])
		}
	}
}

func TestMeasurementJSONRoundTrip(t *testing.T) {
	in := Measurement{ACPI: 1234.5, Baytech: 1230, True: 1233.25, Elapsed: 90 * time.Second}
	var buf bytes.Buffer
	if err := WriteMeasurementJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "acpi_joules") {
		t.Fatalf("json: %s", buf.String())
	}
	var j measurementJSON
	dec := json.NewDecoder(&buf)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&j); err != nil {
		t.Fatal(err)
	}
	out := Measurement{ACPI: j.ACPIJoules, Baytech: j.BaytechJoules, True: j.TrueJoules, Elapsed: time.Duration(j.ElapsedNs)}
	if out != in {
		t.Fatalf("round-trip %+v vs %+v", out, in)
	}
}

// Property: CSV round-trips arbitrary sample sets exactly.
func TestPropertySamplesCSVRoundTrip(t *testing.T) {
	f := func(nodes []uint8, times []int64, watts []float64) bool {
		n := len(nodes)
		if len(times) < n {
			n = len(times)
		}
		if len(watts) < n {
			n = len(watts)
		}
		in := make([]Sample, 0, n)
		for i := 0; i < n; i++ {
			tm := times[i]
			if tm < 0 {
				tm = -tm
			}
			w := watts[i]
			if math.IsNaN(w) || math.IsInf(w, 0) {
				w = 0
			}
			in = append(in, Sample{Node: int(nodes[i]), At: sim.Time(tm), Watts: w})
		}
		var buf bytes.Buffer
		if err := WriteSamplesCSV(&buf, in); err != nil {
			return false
		}
		out := parseSamplesCSV(t, &buf)
		if len(out) != len(in) {
			return false
		}
		for i := range in {
			if out[i] != in[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
