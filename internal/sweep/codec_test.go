package sweep

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"
)

// classC is FT.C.8 under the cpuspeed daemon as dvsd returns it: every
// field set, daemon_moves included.
var classC = ResultJSON{
	Name: "FT.C.8", Strategy: "auto",
	ElapsedSec: 43.26061727, EnergyJ: 6556.248790759172, AvgPowerW: 151.55236343115575,
	EnergyPerNodeJ: 819.5310988448965, Transitions: 32, DaemonMoves: 32,
	AvgTempC: 36.807296973209965, MinLifetimeFactor: 4.941368488379609,
	NetMessages: 1600, NetBytes: 2660007680,
}

// floatSeeds are the float64 bit patterns at encoding/json's format
// boundaries, plus the ones it refuses.
var floatSeeds = []float64{
	0, math.Copysign(0, -1), 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
	0.000001234, 9.999999999999999e20, 1e21, -1e21, 1.7976931348623157e308,
	43.26061727, math.Inf(1), math.Inf(-1), math.NaN(),
}

// jsonLine is what encoding/json writes for v as one stream line.
func jsonLine(v any) ([]byte, error) {
	b, err := json.Marshal(v)
	return append(b, '\n'), err
}

// sameEncoding checks an appender against encoding/json: the same bytes,
// or an error in the same cases, with dst left untouched on error.
func sameEncoding(t *testing.T, what string, v any, appendTo func([]byte) ([]byte, error)) []byte {
	t.Helper()
	want, werr := jsonLine(v)
	got, err := appendTo([]byte("prefix"))
	if (err == nil) != (werr == nil) {
		t.Fatalf("%s: appender error %v, encoding/json error %v", what, err, werr)
	}
	if err != nil {
		if string(got) != "prefix" {
			t.Fatalf("%s: failed appender changed dst to %q", what, got)
		}
		return nil
	}
	if !bytes.Equal(got[len("prefix"):], want) {
		t.Fatalf("%s:\nappender     %s\nencoding/json %s", what, got[len("prefix"):], want)
	}
	return want
}

// sameDecoding checks a decoder against json.Unmarshal into a zero value:
// the same value, bit for bit, and the same error.
func sameDecoding[T any](t *testing.T, what string, data []byte, decode func([]byte, *T) error) {
	t.Helper()
	var got, want T
	err := decode(data, &got)
	werr := json.Unmarshal(data, &want)
	if fmt.Sprint(err) != fmt.Sprint(werr) {
		t.Fatalf("%s of %q: decoder error %v, json.Unmarshal error %v", what, data, err, werr)
	}
	gb, _ := json.Marshal(got) // decoded values are finite, and this tells -0 from 0
	wb, _ := json.Marshal(want)
	if !reflect.DeepEqual(got, want) || !bytes.Equal(gb, wb) {
		t.Fatalf("%s of %q:\ndecoder        %s\njson.Unmarshal %s", what, data, gb, wb)
	}
}

// plain reports whether every string in r takes the fast path as is.
func plain(r ResultJSON) bool {
	for _, s := range []string{r.Name, r.Strategy} {
		for i := 0; i < len(s); i++ {
			if !htmlSafe(s[i]) {
				return false
			}
		}
	}
	return true
}

// FuzzWireCodec checks the result codec against encoding/json, which is
// its specification. The appenders must write json.Marshal's bytes for
// any result (every float64 bit pattern, any string), and refuse exactly
// what it refuses. The decoders must return json.Unmarshal's value and
// error for any input: the appenders' own output (which must take the
// fast path), a prefix of it (a body cut off in transit), it followed
// by arbitrary bytes, and the arbitrary bytes alone.
func FuzzWireCodec(f *testing.F) {
	var seedLines [][]byte
	for _, r := range []ResultJSON{classC, {Name: "IS.S.2", Strategy: "nodvs"}} {
		b, _ := AppendResponse(nil, &SimulateResponse{Cached: true, Result: r})
		seedLines = append(seedLines, b)
		b, _ = AppendRecord(nil, &SweepRecord{Index: 7, Cached: true, Result: &r})
		seedLines = append(seedLines, b)
		b, _ = AppendRecord(nil, &SweepRecord{Index: 3, Result: &r})
		seedLines = append(seedLines, b)
	}
	seedLines = append(seedLines, []byte(`{"cached":false,"result":null}`),
		[]byte(`{"index":1,"result":null}`), []byte(`{"index":1,"wire":null}`),
		[]byte(`{"index":01,"result":{}}`), []byte(`{"done":true,"jobs":2,"cached_cells":1,"errors":0}`))
	strs := []string{"FT.C.8", "", `a"b\c`, "\x00\x1f\b\f\n\r\t", "<>&", "\u2028\u2029", "\xff\xfe", "é€😀"}
	for i, line := range seedLines {
		x := floatSeeds[i%len(floatSeeds)]
		f.Add(strs[i%len(strs)], strs[(i+3)%len(strs)], math.Float64bits(x), math.Float64bits(-x),
			math.Float64bits(x*3), math.Float64bits(x/3), math.Float64bits(x+1), math.Float64bits(x/7),
			i, i%2, 1<<i, int64(-1)<<62, i-2, i%3 == 0, line, uint16(i*37))
	}

	f.Fuzz(func(t *testing.T, name, strategy string, b0, b1, b2, b3, b4, b5 uint64,
		transitions, moves, messages int, netBytes int64, index int, cached bool, data []byte, cut uint16) {
		r := ResultJSON{
			Name: name, Strategy: strategy,
			ElapsedSec: math.Float64frombits(b0), EnergyJ: math.Float64frombits(b1),
			AvgPowerW: math.Float64frombits(b2), EnergyPerNodeJ: math.Float64frombits(b3),
			Transitions: transitions, DaemonMoves: moves,
			AvgTempC: math.Float64frombits(b4), MinLifetimeFactor: math.Float64frombits(b5),
			NetMessages: messages, NetBytes: netBytes,
		}
		resp := SimulateResponse{Cached: cached, Result: r}
		rec := SweepRecord{Index: index, Cached: cached, Result: &r}
		errRec := SweepRecord{Index: index, Cached: cached, Error: &APIError{Code: name, Message: strategy, Field: name + strategy, RetryAfterMS: netBytes}}
		bare := SweepRecord{Index: index, Cached: cached}
		tr := SweepTrailer{Done: cached, Jobs: index, CachedCells: transitions, Errors: moves}

		encoded := [][]byte{
			sameEncoding(t, "response", resp, func(b []byte) ([]byte, error) { return AppendResponse(b, &resp) }),
			sameEncoding(t, "record", rec, func(b []byte) ([]byte, error) { return AppendRecord(b, &rec) }),
			sameEncoding(t, "error record", errRec, func(b []byte) ([]byte, error) { return AppendRecord(b, &errRec) }),
			sameEncoding(t, "bare record", bare, func(b []byte) ([]byte, error) { return AppendRecord(b, &bare) }),
			sameEncoding(t, "trailer", tr, func(b []byte) ([]byte, error) { return appendTrailer(b, &tr), nil }),
		}

		// The appenders' canonical output takes the fast path.
		if encoded[0] != nil && plain(r) {
			var got SimulateResponse
			if !readResponse(encoded[0], &got) {
				t.Fatalf("canonical body took the slow path: %s", encoded[0])
			}
			var res ResultJSON
			if i, _ := decodeCell(encoded[1], &res); index >= 0 && i < 0 {
				t.Fatalf("canonical record took the slow path: %s", encoded[1])
			}
		}

		inputs := [][]byte{data}
		for _, e := range encoded {
			if len(e) > 0 {
				inputs = append(inputs, e, e[:int(cut)%len(e)], append(e[:len(e):len(e)], data...))
			}
		}
		for _, in := range inputs {
			sameDecoding(t, "DecodeResponse", in, DecodeResponse)
			sameDecoding(t, "decodeLine", in, decodeLine)
		}
	})
}

// TestCodecMatchesEncodingJSON runs the fuzz target's checks over the
// float and string boundary seeds in every combination, so plain `go
// test` covers them.
func TestCodecMatchesEncodingJSON(t *testing.T) {
	for _, x := range floatSeeds {
		for _, s := range []string{"FT.C.8", `q"\`, "\x00\x7f<>&\u2028\u2029\xff", "é"} {
			r := classC
			r.Name, r.EnergyJ, r.AvgTempC = s, x, -x
			for _, cached := range []bool{false, true} {
				r.DaemonMoves = map[bool]int{false: 0, true: 32}[cached]
				resp := SimulateResponse{Cached: cached, Result: r}
				rec := SweepRecord{Index: 12, Cached: cached, Result: &r}
				for _, b := range [][]byte{
					sameEncoding(t, "response", resp, func(b []byte) ([]byte, error) { return AppendResponse(b, &resp) }),
					sameEncoding(t, "record", rec, func(b []byte) ([]byte, error) { return AppendRecord(b, &rec) }),
				} {
					sameDecoding(t, "DecodeResponse", b, DecodeResponse)
					sameDecoding(t, "decodeLine", b, decodeLine)
				}
			}
		}
	}
}

// TestDecodeFallsBack: inputs off the canonical layout reach
// encoding/json, and get its value or its error.
func TestDecodeFallsBack(t *testing.T) {
	canon, _ := AppendResponse(nil, &SimulateResponse{Cached: true, Result: classC})
	for _, in := range []string{
		string(canon),
		string(bytes.TrimSuffix(canon, []byte("\n"))),
		" " + string(canon),
		string(canon) + "\n",
		string(canon) + "x",
		string(bytes.TrimSuffix(canon, []byte("\n"))) + "}",
		`{"result":{"name":"FT.C.8"},"cached":true}`,
		`{"cached":true,"result":null}`,
		`{"Cached":true,"result":{"name":"x"}}`,
		`{"cached":true,"result":{"name":"x"},"extra":1}`,
		`{"cached":true,"result":{"name":"\u0041","strategy":"s","elapsed_sec":1,"energy_j":1,"avg_power_w":1,"energy_per_node_j":1,"transitions":1,"avg_temp_c":1,"min_lifetime_factor":1,"net_messages":1,"net_bytes":1}}`,
		`{"cached":true,"result":{"name":"x","strategy":"s","elapsed_sec":01,"energy_j":1,"avg_power_w":1,"energy_per_node_j":1,"transitions":1,"avg_temp_c":1,"min_lifetime_factor":1,"net_messages":1,"net_bytes":1}}`,
		`{"cached":true,"result":{"name":"x","strategy":"s","elapsed_sec":1e999,"energy_j":1,"avg_power_w":1,"energy_per_node_j":1,"transitions":1,"avg_temp_c":1,"min_lifetime_factor":1,"net_messages":1,"net_bytes":1}}`,
		`{"cached":true,"result":{"name":"x","strategy":"s","elapsed_sec":1,"energy_j":1,"avg_power_w":1,"energy_per_node_j":1,"transitions":1.5,"avg_temp_c":1,"min_lifetime_factor":1,"net_messages":1,"net_bytes":1}}`,
		`{"cached":true,"result":{"name":"x","strategy":"s","elapsed_sec":1,"energy_j":1,"avg_power_w":1,"energy_per_node_j":1,"transitions":1,"avg_temp_c":1,"min_lifetime_factor":1,"net_messages":1,"net_bytes":99999999999999999999}}`,
		string(canon[:len(canon)/2]),
		"",
	} {
		sameDecoding(t, "DecodeResponse", []byte(in), DecodeResponse)
	}
}

// TestAppendRefusesNonFinite: a figure JSON cannot carry is an error
// naming the field, never a silently empty or partial line.
func TestAppendRefusesNonFinite(t *testing.T) {
	r := classC
	r.AvgPowerW = math.Inf(1)
	if _, err := AppendResponse(nil, &SimulateResponse{Result: r}); err == nil ||
		err.Error() != "result avg_power_w is +Inf, which JSON cannot carry" {
		t.Fatalf("err = %v", err)
	}
	var buf bytes.Buffer
	NewEncoder(&buf).Record(SweepRecord{Index: 4, Result: &r})
	recs, _, _ := DecodeStream(&buf)
	if len(recs) != 1 || recs[0].Error == nil || recs[0].Error.Code != CodeSimFailed {
		t.Fatalf("Encoder sent %+v for an unencodable result, want a sim_failed record", recs)
	}
}

// TestWireCodecAllocs pins the codec's cost on one class-C result:
// appending into a reused buffer allocates nothing, and decoding
// allocates only the two strings (and, for a stream line, the result it
// points to).
func TestWireCodecAllocs(t *testing.T) {
	resp := SimulateResponse{Result: classC}
	rec := SweepRecord{Index: 41, Cached: true, Result: &classC}
	buf := make([]byte, 0, 1024)
	body, _ := AppendResponse(nil, &resp)
	line, _ := AppendRecord(nil, &rec)
	var gotResp SimulateResponse
	var gotLine streamLine
	for _, c := range []struct {
		name   string
		budget float64
		f      func()
	}{
		{"AppendResponse", 0, func() { buf, _ = AppendResponse(buf[:0], &resp) }},
		{"AppendRecord", 0, func() { buf, _ = AppendRecord(buf[:0], &rec) }},
		{"DecodeResponse", 2, func() { _ = DecodeResponse(body, &gotResp) }},
		{"decodeLine", 3, func() { _ = decodeLine(line, &gotLine) }},
	} {
		if a := testing.AllocsPerRun(100, c.f); a != c.budget {
			t.Errorf("%s: %v allocs, pinned at %v", c.name, a, c.budget)
		}
	}
	if gotResp != resp || *gotLine.Result != classC {
		t.Fatalf("round trip changed the result: %+v / %+v", gotResp, gotLine.Result)
	}
}

// TestEncoderRecordAllocFree: streaming a result record allocates
// nothing, the Encoder's own copy of the record included; only an error
// record, which goes through encoding/json, may allocate.
func TestEncoderRecordAllocFree(t *testing.T) {
	enc := NewEncoder(io.Discard)
	rec := SweepRecord{Index: 41, Cached: true, Result: &classC}
	enc.Record(rec) // grow the line buffer once
	if a := testing.AllocsPerRun(100, func() { enc.Record(rec) }); a != 0 {
		t.Errorf("Encoder.Record: %v allocs, want 0", a)
	}
}
