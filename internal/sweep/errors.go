// Typed wire errors: the JSON error contract shared by dvsd, dvsgw, and
// every sweep client. These types were born in internal/server; they live
// here because the sweep pipeline — not any one HTTP daemon — owns the
// wire contract end to end.
package sweep

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Error codes returned in the "code" field of error responses. They are
// part of the service's wire contract: clients dispatch on the code, the
// message is for humans.
const (
	CodeBadRequest       = "bad_request"        // malformed JSON / wrong shape
	CodeInvalidWorkload  = "invalid_workload"   // workload spec failed validation
	CodeInvalidStrategy  = "invalid_strategy"   // strategy spec failed validation
	CodeInvalidConfig    = "invalid_config"     // config spec failed validation
	CodeInvalidSweep     = "invalid_sweep"      // sweep shape (jobs vs grid) invalid
	CodeTooManyJobs      = "too_many_jobs"      // sweep exceeds the per-request job bound
	CodeBodyTooLarge     = "body_too_large"     // request body exceeds the per-request byte bound
	CodeQueueFull        = "queue_full"         // admission queue at capacity; retry later
	CodeDeadlineExceeded = "deadline_exceeded"  // per-request deadline expired
	CodeCanceled         = "canceled"           // client went away before completion
	CodeSimFailed        = "sim_failed"         // simulation returned an error
	CodeMethodNotAllowed = "method_not_allowed" // wrong HTTP verb
)

// StatusClientClosed is nginx's 499: the client went away. Nothing
// standard fits; the status is visible only in metrics since the client
// is no longer reading.
const StatusClientClosed = 499

// APIError is a typed, client-dispatchable request failure. It implements
// error so spec builders can return it through ordinary error plumbing;
// its code alone decides the HTTP status (HTTPStatus).
type APIError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
	// Field names the offending request field in JSON-pointer-ish dotted
	// form (e.g. "jobs[3].strategy.freq_mhz"), when one is identifiable.
	Field string `json:"field,omitempty"`
	// RetryAfterMS accompanies queue_full: how long the client should
	// back off before resubmitting.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

func (e *APIError) Error() string {
	if e.Field != "" {
		return fmt.Sprintf("%s: %s: %s", e.Code, e.Field, e.Message)
	}
	return fmt.Sprintf("%s: %s", e.Code, e.Message)
}

// Errf builds a typed error with a formatted message.
func Errf(code, field, format string, args ...any) *APIError {
	return &APIError{Code: code, Message: fmt.Sprintf(format, args...), Field: field}
}

// InField re-roots a spec builder's error under a parent field path, so
// sweep expansion can report "jobs[3].strategy.kind" rather than
// "strategy.kind". Non-APIError errors are wrapped as bad_request.
func InField(err error, parent string) *APIError {
	if ae, ok := err.(*APIError); ok {
		e := *ae
		switch {
		case parent == "":
			// no re-rooting, just the type assertion
		case e.Field == "":
			e.Field = parent
		default:
			e.Field = parent + "." + e.Field
		}
		return &e
	}
	return Errf(CodeBadRequest, parent, "%v", err)
}

// HTTPStatus returns the status WriteError renders the error with: the
// one mapping from code to status, so an APIError decoded back off the
// wire (the fleet gateway relaying a backend rejection) renders exactly
// as the backend did.
func (e *APIError) HTTPStatus() int {
	switch e.Code {
	case CodeTooManyJobs, CodeBodyTooLarge:
		return http.StatusRequestEntityTooLarge
	case CodeQueueFull:
		return http.StatusTooManyRequests
	case CodeDeadlineExceeded:
		return http.StatusGatewayTimeout
	case CodeCanceled:
		return StatusClientClosed
	case CodeSimFailed:
		return http.StatusInternalServerError
	case CodeMethodNotAllowed:
		return http.StatusMethodNotAllowed
	case CodeBadRequest, CodeInvalidWorkload, CodeInvalidStrategy,
		CodeInvalidConfig, CodeInvalidSweep:
		return http.StatusBadRequest
	}
	return http.StatusBadGateway
}

// QueueFull builds the 429 shed response.
func QueueFull(retryAfter time.Duration) *APIError {
	e := Errf(CodeQueueFull, "",
		"admission queue is full; retry after %s", retryAfter)
	e.RetryAfterMS = retryAfter.Milliseconds()
	return e
}

// WriteError renders a typed error as the JSON error envelope, setting
// Retry-After on 429s so well-behaved clients back off without parsing
// the body.
func WriteError(w http.ResponseWriter, err *APIError) {
	w.Header().Set("Content-Type", "application/json")
	if err.HTTPStatus() == http.StatusTooManyRequests && err.RetryAfterMS > 0 {
		secs := (err.RetryAfterMS + 999) / 1000
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	w.WriteHeader(err.HTTPStatus())
	_ = json.NewEncoder(w).Encode(map[string]*APIError{"error": err})
}
