package sweep

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// streamSeeds cover every line shape DecodeStream distinguishes: full
// streams, empty sweeps, error records, blank lines, and the failure
// families (truncation, torn JSON, data after the trailer).
var streamSeeds = []string{
	// complete two-cell stream
	`{"index":0,"result":{"name":"ft.S.2","strategy":"nodvs","elapsed_sec":1.5,"energy_j":120}}
{"index":1,"cached":true,"result":{"name":"ft.S.2","strategy":"external(600MHz)","elapsed_sec":2.5,"energy_j":90}}
{"done":true,"jobs":2,"cached_cells":1,"errors":0}`,
	// error record + trailer
	`{"index":0,"error":{"status":500,"code":"sim_failed","message":"boom"}}
{"done":true,"jobs":1,"errors":1}`,
	// empty sweep
	`{"done":true,"jobs":0}`,
	// blank lines are tolerated
	"\n{\"done\":true,\"jobs\":0}\n\n",
	// truncated: records but no trailer
	`{"index":0,"result":{"name":"x","strategy":"y"}}`,
	// torn mid-line, the shape a killed daemon leaves behind
	`{"index":0,"result":{"name":"x","strat`,
	// data after the done trailer
	`{"done":true,"jobs":0}
{"index":7}`,
	// non-object lines
	`null`, `[]`, `42`, `"done"`,
}

// FuzzDecodeStream drives arbitrary bytes through the sweep stream
// decoder — the single decode path for dvsd responses, dvsgw merging,
// and checkpoint journals — asserting it never panics, never reports a
// complete stream without a done trailer, and that decoding is a fixed
// point: re-encoding whatever was decoded and decoding again yields the
// same records and trailer.
func FuzzDecodeStream(f *testing.F) {
	for _, seed := range streamSeeds {
		f.Add([]byte(seed))
	}
	// One authentic stream through the production encoder, so the corpus
	// includes exactly what dvsd writes.
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	enc.Record(SweepRecord{Index: 0, Result: &ResultJSON{Name: "ft.S.2", Strategy: "daemon(cpuspeed-v1.2.1)", ElapsedSec: 3.25, EnergyJ: 410.5}})
	enc.Record(SweepRecord{Index: 1, Error: Errf(CodeSimFailed, "", "injected")})
	enc.Trailer(Summary{Jobs: 2, Errors: 1})
	f.Add(buf.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, trailer, err := DecodeStream(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; not panicking is the property
		}
		if trailer == nil || !trailer.Done {
			t.Fatalf("DecodeStream succeeded without a done trailer (recs=%d)", len(recs))
		}

		// Canonical round trip: encode the decoded stream and decode it
		// again. json re-escaping can lengthen pathological lines past the
		// scanner limit; that changes representation, not meaning, so only
		// streams that re-encode within the limit are compared.
		var out bytes.Buffer
		w := json.NewEncoder(&out)
		for _, r := range recs {
			if err := w.Encode(r); err != nil {
				t.Fatalf("re-encode record: %v", err)
			}
		}
		if err := w.Encode(trailer); err != nil {
			t.Fatalf("re-encode trailer: %v", err)
		}
		for _, line := range strings.Split(out.String(), "\n") {
			if len(line) > maxStreamLine {
				return
			}
		}
		recs2, trailer2, err := DecodeStream(&out)
		if err != nil {
			t.Fatalf("decoded stream does not re-decode: %v", err)
		}
		if len(recs) != len(recs2) {
			t.Fatalf("round trip changed record count: %d then %d", len(recs), len(recs2))
		}
		for i := range recs {
			if !reflect.DeepEqual(recs[i], recs2[i]) {
				t.Fatalf("record %d changed across round trip:\n%+v\n%+v", i, recs[i], recs2[i])
			}
		}
		if !reflect.DeepEqual(trailer, trailer2) {
			t.Fatalf("trailer changed across round trip: %+v then %+v", trailer, trailer2)
		}
	})
}

// TestDecodeStreamTornTail pins the contract the chaos harness relies
// on: a stream cut mid-line decodes every intact record and reports
// truncation, never a silent short sweep.
func TestDecodeStreamTornTail(t *testing.T) {
	var buf bytes.Buffer
	enc := NewEncoder(&buf)
	for i := 0; i < 3; i++ {
		enc.Record(SweepRecord{Index: i, Result: &ResultJSON{Name: "ft.S.2", Strategy: "nodvs"}})
	}
	enc.Trailer(Summary{Jobs: 3})
	full := buf.Bytes()

	// Cut a few bytes into the third record's line.
	lines := bytes.SplitAfter(full, []byte("\n"))
	torn := append(append([]byte{}, lines[0]...), lines[1]...)
	torn = append(torn, lines[2][:10]...)
	recs, _, err := DecodeStream(bytes.NewReader(torn))
	if err == nil {
		t.Fatal("torn stream decoded without error")
	}
	if len(recs) != 2 {
		t.Fatalf("torn stream yielded %d intact records, want 2", len(recs))
	}
}
