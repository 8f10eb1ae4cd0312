// Package dvsclient is the wire client for a dvsd-compatible backend:
// POST one /simulate body, classify the outcome. It is the single
// client-side implementation of the cell wire contract, so a change to
// the wire format happens in one place. It does no retrying: the fleet
// gateway's ladder, which cmd/reproduce's -server mode also places
// through, is the one caller that retries, and the bench/ harness calls
// Do once per request.
package dvsclient

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/sweep"
)

// maxResponseBody bounds how much of a backend response is read; a
// /simulate summary is a few hundred bytes, so anything near the limit
// is not our wire format.
const maxResponseBody = 1 << 20

// bodyBufs holds the buffers response bodies are read into.
var bodyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Result classifies one forwarding attempt. At most one of the outcome
// groups applies: Ok (Resp valid), AE (terminal typed rejection — relay
// as-is, retrying is pointless), or Shed (backend 429 backpressure: wait
// WaitHint and re-ask, don't charge an attempt). When none applies the
// attempt is retryable: it failed, but another backend or a later attempt
// may succeed; Transport additionally means no usable HTTP response
// arrived.
type Result struct {
	Ok        bool
	Resp      sweep.SimulateResponse
	AE        *sweep.APIError
	Transport bool
	Shed      bool
	WaitHint  time.Duration
}

// Do POSTs one cell body to baseURL/simulate and classifies the
// response. traceparent, when non-empty, is injected so the backend's
// spans stitch under the caller's trace. Do does no retrying and no
// liveness bookkeeping; the fleet gateway's ladder owns both.
func Do(ctx context.Context, hc *http.Client, baseURL string, body []byte, traceparent string) Result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/simulate", bytes.NewReader(body))
	if err != nil {
		return Result{Transport: true}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Result{Transport: true}
	}
	defer func() {
		// Drain whatever ReadAll's limit left behind before closing, or
		// the transport abandons the connection instead of reusing it.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	// The body is read into a pooled buffer: decoding copies out every
	// string it keeps, so the buffer is free again when Do returns. One
	// grown by an outsized body is left to the collector.
	buf := bodyBufs.Get().(*bytes.Buffer)
	buf.Reset()
	defer func() {
		if buf.Cap() <= 64<<10 {
			bodyBufs.Put(buf)
		}
	}()
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxResponseBody)); err != nil {
		return Result{Transport: true}
	}
	raw := buf.Bytes()
	if resp.StatusCode == http.StatusOK {
		var res Result
		if err := sweep.DecodeResponse(raw, &res.Resp); err != nil {
			return Result{}
		}
		res.Ok = true
		return res
	}
	var env struct {
		Error *sweep.APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		// Not our wire format — a crashed backend, a proxy error page.
		return Result{}
	}
	if env.Error.Code == sweep.CodeQueueFull {
		return Result{Shed: true,
			WaitHint: time.Duration(env.Error.RetryAfterMS) * time.Millisecond}
	}
	// Deterministic rejections (invalid spec, sim_failed, deadline) recur
	// on any attempt: relay, don't retry.
	return Result{AE: env.Error}
}
