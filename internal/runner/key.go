package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"reflect"
	"slices"
)

// Key returns the job's content address and whether the job is cacheable.
// A job is uncacheable when its inputs are not fully value-identified: a
// tracer is attached (side effects), middleware is installed, or the
// workload is a variant that did not declare its closure parameters
// (npb.Workload.AppendID).
func (j Job) Key() (string, bool) { return j.key(modelVersion) }

// modelVersion names the simulator's physics in every content address:
// the memo cache and its snapshots, the sweep checkpoint journals (their
// plan fingerprint hashes the cell keys), and the fleet's ring routing.
// Bump it whenever an unchanged job's core.Result bytes change, so a
// restarted daemon, a resumed sweep or a mixed-version fleet never
// serves a result the current model would not produce.
const modelVersion = "2"

// key hashes the job's preimage under the given model version: the stamp
// "model=<version>|", the length-prefixed workload ID, then the strategy
// and the node, network and MPI configs in appendValue's encoding. The
// preimage is built in a stack buffer, so a key costs one allocation,
// the returned string.
func (j Job) key(model string) (string, bool) {
	if j.Config.Tracer != nil || j.Workload.Body == nil {
		return "", false
	}
	var buf [1024]byte
	b := append(buf[:0], "model="...)
	b = append(b, model...)
	b = append(b, '|')
	at := len(b)
	b = binary.BigEndian.AppendUint64(b, 0)
	b, ok := j.Workload.AppendID(b)
	if !ok {
		return "", false
	}
	binary.BigEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	b = appendValue(b, reflect.ValueOf(&j.Strategy).Elem())
	b = appendValue(b, reflect.ValueOf(&j.Config.Node).Elem())
	b = appendValue(b, reflect.ValueOf(&j.Config.Net).Elem())
	b = appendValue(b, reflect.ValueOf(&j.Config.MPI).Elem())
	sum := sha256.Sum256(b)
	var out [2 * sha256.Size]byte
	hex.Encode(out[:], sum[:])
	return string(out[:]), true
}

// appendValue appends v's canonical encoding to b. Structs are their
// fields in declaration order; every leaf is fixed-width big-endian bits
// (ints and uints as 8 bytes, floats as math.Float64bits, bools as one
// byte); strings, slices and maps carry an 8-byte length prefix, and map
// entries follow in the byte order of their encoded keys. The walk is
// driven by v's type, so a field added to a keyed config is keyed
// without touching this code, and two values of one type share an
// encoding only when every leaf's bits agree: a nil and an empty slice
// or map are the one exception. String methods are never called, since
// some (core.Strategy's) collapse distinct values. A kind with no
// defined encoding, such as a pointer, func, interface or chan, panics:
// its value is not an input's identity.
func appendValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.BigEndian.AppendUint64(b, uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return binary.BigEndian.AppendUint64(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Len()))
		return append(b, v.String()...)
	case reflect.Slice:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Len()))
		fallthrough
	case reflect.Array:
		for i := range v.Len() {
			b = appendValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for i := range v.NumField() {
			b = appendValue(b, v.Field(i))
		}
		return b
	case reflect.Map:
		b = binary.BigEndian.AppendUint64(b, uint64(v.Len()))
		keys := v.MapKeys()
		slices.SortFunc(keys, func(x, y reflect.Value) int {
			return bytes.Compare(appendValue(nil, x), appendValue(nil, y))
		})
		for _, k := range keys {
			b = appendValue(b, k)
			b = appendValue(b, v.MapIndex(k))
		}
		return b
	}
	panic("runner: no key encoding for " + v.Kind().String() + " in " + v.Type().String())
}
