// Package spec carries the neutral, transport-agnostic error type shared
// by the wire decoders of the strategy table (internal/core) and the
// workload table (internal/npb). A decode rejection names the offending
// parameter *relative to the object being decoded* ("freq_mhz", not
// "strategy.freq_mhz"); each consumer — the dvsd service, a CLI flag
// parser — roots the path in its own namespace.
//
// The package is a leaf by design: npb cannot import core (core imports
// npb) yet both tables must speak the same rejection dialect, and the
// server must be able to translate either into its typed field-level 400
// without knowing which table produced it.
package spec

import "fmt"

// Error is a field-level decode rejection. Field is the offending
// parameter's relative path ("freq_mhz", "per_node[3]"); an empty Field
// blames the whole object. Msg is the human-readable explanation.
type Error struct {
	Field string
	Msg   string
}

func (e *Error) Error() string {
	if e.Field == "" {
		return e.Msg
	}
	return e.Field + ": " + e.Msg
}

// Errorf builds a field-level rejection with a formatted message.
func Errorf(field, format string, args ...any) *Error {
	return &Error{Field: field, Msg: fmt.Sprintf(format, args...)}
}
