package sweep

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"unicode/utf8"
)

// The result codec: both wire forms that carry a ResultJSON — the POST
// /simulate success body and a /sweep record line, which is also what a
// checkpoint journal stores — are appended with strconv into the
// caller's buffer and read back by a fixed-layout reader, without
// reflection.
//
// The appenders write exactly the bytes encoding/json writes for the same
// value: fields in struct order, omitempty fields left out when zero,
// floats by encoding/json's 'f'/'e' rule, and a trailing newline as
// json.Encoder adds. A string that needs an escape, and a /sweep error
// record, are written by encoding/json itself. A result encoding/json
// cannot encode (a non-finite figure) is an error here too, and nothing
// is appended.
//
// The reader takes its fast path only when the input is the layout the
// appenders write: those keys in that order, no whitespace, plain
// printable ASCII strings, at most one trailing newline. Any other input
// — reordered, spaced, escaped, null, unknown or case-folded keys,
// numbers outside JSON's grammar, a cut-off body — goes to json.Unmarshal
// unchanged, so the values accepted and the errors returned are those of
// encoding/json. Numbers on the fast path are parsed by the strconv calls
// encoding/json itself makes, and a number strconv rejects also falls
// back.

// AppendResponse appends the POST /simulate success body for resp.
func AppendResponse(dst []byte, resp *SimulateResponse) ([]byte, error) {
	if err := resp.Result.check(); err != nil {
		return dst, err
	}
	dst = append(dst, `{"cached":`...)
	dst = strconv.AppendBool(dst, resp.Cached)
	dst = append(dst, `,"result":`...)
	dst = appendResult(dst, &resp.Result)
	return append(dst, "}\n"...), nil
}

// DecodeResponse decodes a POST /simulate success body into resp, which
// it zeroes first, exactly as json.Unmarshal into a zero value would.
func DecodeResponse(data []byte, resp *SimulateResponse) error {
	if readResponse(data, resp) {
		return nil
	}
	*resp = SimulateResponse{}
	return json.Unmarshal(data, resp)
}

// readResponse is DecodeResponse's fast path: false when data is not in
// AppendResponse's layout.
func readResponse(data []byte, resp *SimulateResponse) bool {
	*resp = SimulateResponse{}
	r := reader{b: data, ok: true}
	r.lit(`{"cached":`)
	resp.Cached = r.boolean()
	r.lit(`,"result":`)
	r.result(&resp.Result)
	r.lit("}")
	return r.end()
}

// AppendRecord appends rec as one /sweep stream line. An error record
// goes through encoding/json: it is rare, and its message is free text.
func AppendRecord(dst []byte, rec *SweepRecord) ([]byte, error) {
	if rec.Error != nil {
		// By value: a pointer would move every caller's record to the
		// heap, result records included.
		b, err := json.Marshal(*rec)
		if err != nil {
			return dst, err
		}
		return append(append(dst, b...), '\n'), nil
	}
	if rec.Result != nil {
		if err := rec.Result.check(); err != nil {
			return dst, err
		}
	}
	dst = append(dst, `{"index":`...)
	dst = strconv.AppendInt(dst, int64(rec.Index), 10)
	if rec.Cached {
		dst = append(dst, `,"cached":true`...)
	}
	if rec.Result != nil {
		dst = append(dst, `,"result":`...)
		dst = appendResult(dst, rec.Result)
	}
	return append(dst, "}\n"...), nil
}

// appendTrailer appends the stream's done line.
func appendTrailer(dst []byte, t *SweepTrailer) []byte {
	dst = append(dst, `{"done":`...)
	dst = strconv.AppendBool(dst, t.Done)
	dst = append(dst, `,"jobs":`...)
	dst = strconv.AppendInt(dst, int64(t.Jobs), 10)
	dst = append(dst, `,"cached_cells":`...)
	dst = strconv.AppendInt(dst, int64(t.CachedCells), 10)
	dst = append(dst, `,"errors":`...)
	dst = strconv.AppendInt(dst, int64(t.Errors), 10)
	return append(dst, "}\n"...)
}

// decodeLine decodes one stream line, a record or the trailer, into the
// union shape l (zeroed first).
func decodeLine(line []byte, l *streamLine) error {
	*l = streamLine{}
	var res ResultJSON
	if i, cached := decodeCell(line, &res); i >= 0 {
		l.Index, l.Cached, l.Result = i, cached, &res
		return nil
	}
	return json.Unmarshal(line, l)
}

// check reports the first figure encoding/json cannot encode.
func (r *ResultJSON) check() error {
	for _, f := range [...]struct {
		name string
		v    float64
	}{
		{"elapsed_sec", r.ElapsedSec}, {"energy_j", r.EnergyJ},
		{"avg_power_w", r.AvgPowerW}, {"energy_per_node_j", r.EnergyPerNodeJ},
		{"avg_temp_c", r.AvgTempC}, {"min_lifetime_factor", r.MinLifetimeFactor},
	} {
		if math.IsInf(f.v, 0) || math.IsNaN(f.v) {
			return fmt.Errorf("result %s is %v, which JSON cannot carry", f.name, f.v)
		}
	}
	return nil
}

// appendResult appends r as a JSON object; r.check() must have passed.
func appendResult(dst []byte, r *ResultJSON) []byte {
	dst = append(dst, `{"name":`...)
	dst = appendString(dst, r.Name)
	dst = append(dst, `,"strategy":`...)
	dst = appendString(dst, r.Strategy)
	dst = append(dst, `,"elapsed_sec":`...)
	dst = appendFloat(dst, r.ElapsedSec)
	dst = append(dst, `,"energy_j":`...)
	dst = appendFloat(dst, r.EnergyJ)
	dst = append(dst, `,"avg_power_w":`...)
	dst = appendFloat(dst, r.AvgPowerW)
	dst = append(dst, `,"energy_per_node_j":`...)
	dst = appendFloat(dst, r.EnergyPerNodeJ)
	dst = append(dst, `,"transitions":`...)
	dst = strconv.AppendInt(dst, int64(r.Transitions), 10)
	if r.DaemonMoves != 0 {
		dst = append(dst, `,"daemon_moves":`...)
		dst = strconv.AppendInt(dst, int64(r.DaemonMoves), 10)
	}
	dst = append(dst, `,"avg_temp_c":`...)
	dst = appendFloat(dst, r.AvgTempC)
	dst = append(dst, `,"min_lifetime_factor":`...)
	dst = appendFloat(dst, r.MinLifetimeFactor)
	dst = append(dst, `,"net_messages":`...)
	dst = strconv.AppendInt(dst, int64(r.NetMessages), 10)
	dst = append(dst, `,"net_bytes":`...)
	dst = strconv.AppendInt(dst, r.NetBytes, 10)
	return append(dst, '}')
}

// appendFloat is encoding/json's float64 rule: the shortest 'f' form,
// or 'e' below 1e-6 and from 1e21 in magnitude, with a two-digit
// negative exponent shortened to one (e-07 → e-7).
func appendFloat(dst []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst
}

// htmlSafe reports whether encoding/json writes the ASCII byte b as is
// in a string with HTML escaping on.
func htmlSafe(b byte) bool {
	return b >= 0x20 && b < utf8.RuneSelf && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&'
}

// appendString is encoding/json's HTML-safe string encoding. A string
// whose bytes all pass htmlSafe (every name and strategy the simulator
// writes) is copied between quotes; any other goes to json.Marshal.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !htmlSafe(s[i]) {
			b, _ := json.Marshal(s) // a string always marshals
			return append(dst, b...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// decodeCell reads a canonical result record line,
// `{"index":N[,"cached":true],"result":` then a result object and `}`,
// into res. It returns index -1 when line is not in that layout.
func decodeCell(line []byte, res *ResultJSON) (index int, cached bool) {
	r := reader{b: line, ok: true}
	r.lit(`{"index":`)
	index = int(r.int(strconv.IntSize))
	cached = r.opt(`,"cached":true`)
	r.lit(`,"result":`)
	r.result(res)
	r.lit("}")
	if !r.end() || index < 0 {
		return -1, false
	}
	return index, cached
}

// reader is the fixed-layout reader. Each method consumes one token of
// the canonical layout; on anything else it clears ok, and every later
// call is a no-op, so a decode is one straight-line pass whose outcome
// is read once at the end.
type reader struct {
	b  []byte
	ok bool
}

// lit consumes s.
func (r *reader) lit(s string) {
	if !r.opt(s) {
		r.ok = false
	}
}

// opt consumes s if the input continues with it.
func (r *reader) opt(s string) bool {
	if r.ok && len(r.b) >= len(s) && string(r.b[:len(s)]) == s {
		r.b = r.b[len(s):]
		return true
	}
	return false
}

// end reports whether the whole input was read, allowing one trailing
// newline.
func (r *reader) end() bool {
	return r.ok && (len(r.b) == 0 || len(r.b) == 1 && r.b[0] == '\n')
}

func (r *reader) boolean() bool {
	if r.opt("true") {
		return true
	}
	r.lit("false")
	return false
}

// str reads a string of bytes encoding/json writes unescaped.
func (r *reader) str() string {
	if !r.ok || len(r.b) == 0 || r.b[0] != '"' {
		r.ok = false
		return ""
	}
	for i := 1; i < len(r.b); i++ {
		switch c := r.b[i]; {
		case c == '"':
			s := string(r.b[1:i])
			r.b = r.b[i+1:]
			return s
		case !htmlSafe(c):
			r.ok = false
			return ""
		}
	}
	r.ok = false
	return ""
}

// digits returns how many ASCII digits b starts with.
func digits(b []byte) int {
	n := 0
	for n < len(b) && b[n] >= '0' && b[n] <= '9' {
		n++
	}
	return n
}

// integer returns the length of the -?(0|[1-9][0-9]*) prefix of b, 0 if
// there is none.
func integer(b []byte) int {
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch n := digits(b[i:]); {
	case n == 0:
		return 0
	case b[i] == '0':
		return i + 1
	default:
		return i + n
	}
}

// int reads an integer literal and parses it as encoding/json does for
// an integer field of the given size.
func (r *reader) int(bits int) int64 {
	n := 0
	if r.ok {
		n = integer(r.b)
	}
	if n == 0 {
		r.ok = false
		return 0
	}
	v, err := strconv.ParseInt(string(r.b[:n]), 10, bits)
	if err != nil {
		r.ok = false
		return 0
	}
	r.b = r.b[n:]
	return v
}

// float reads a number in JSON's grammar and parses it as encoding/json
// does for a float64 field.
func (r *reader) float() float64 {
	n := 0
	if r.ok {
		n = integer(r.b)
	}
	if n == 0 {
		r.ok = false
		return 0
	}
	b := r.b
	if n < len(b) && b[n] == '.' {
		d := digits(b[n+1:])
		if d == 0 {
			r.ok = false
			return 0
		}
		n += 1 + d
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		d := digits(b[n:])
		if d == 0 {
			r.ok = false
			return 0
		}
		n += d
	}
	v, err := strconv.ParseFloat(string(b[:n]), 64)
	if err != nil {
		r.ok = false
		return 0
	}
	r.b = b[n:]
	return v
}

// result reads a ResultJSON object in appendResult's layout.
func (r *reader) result(v *ResultJSON) {
	r.lit(`{"name":`)
	v.Name = r.str()
	r.lit(`,"strategy":`)
	v.Strategy = r.str()
	r.lit(`,"elapsed_sec":`)
	v.ElapsedSec = r.float()
	r.lit(`,"energy_j":`)
	v.EnergyJ = r.float()
	r.lit(`,"avg_power_w":`)
	v.AvgPowerW = r.float()
	r.lit(`,"energy_per_node_j":`)
	v.EnergyPerNodeJ = r.float()
	r.lit(`,"transitions":`)
	v.Transitions = int(r.int(strconv.IntSize))
	if r.opt(`,"daemon_moves":`) {
		v.DaemonMoves = int(r.int(strconv.IntSize))
	}
	r.lit(`,"avg_temp_c":`)
	v.AvgTempC = r.float()
	r.lit(`,"min_lifetime_factor":`)
	v.MinLifetimeFactor = r.float()
	r.lit(`,"net_messages":`)
	v.NetMessages = int(r.int(strconv.IntSize))
	r.lit(`,"net_bytes":`)
	v.NetBytes = r.int(64)
	r.lit("}")
}
