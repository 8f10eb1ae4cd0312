// Package dvsclient is the wire client for a dvsd-compatible backend:
// POST one /simulate body, classify the outcome. It is the single
// client-side implementation of the cell wire contract — the fleet
// gateway's per-backend forwarding and cmd/reproduce's -server mode both
// sit on Do, so a change to the wire format happens in one place.
package dvsclient

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"time"

	"repro/internal/sweep"
)

// maxResponseBody bounds how much of a backend response is read; a
// /simulate summary is a few hundred bytes, so anything near the limit
// is not our wire format.
const maxResponseBody = 1 << 20

// Result classifies one forwarding attempt. Exactly one of the outcome
// groups applies: Ok (Resp valid), AE (terminal typed rejection — relay
// as-is, retrying is pointless), Shed (backend 429 backpressure: wait
// WaitHint and re-ask, don't charge an attempt), or Retry (failed, but
// another backend or a later attempt may succeed; Transport additionally
// means no usable HTTP response arrived).
type Result struct {
	Ok        bool
	Resp      sweep.SimulateResponse
	AE        *sweep.APIError
	Retry     bool
	Transport bool
	Shed      bool
	WaitHint  time.Duration
}

// Do POSTs one cell body to baseURL/simulate and classifies the
// response. traceparent, when non-empty, is injected so the backend's
// spans stitch under the caller's trace. Do does no retrying and no
// liveness bookkeeping — callers own their ladder (the fleet charges
// failures to ring backends; reproduce just retries).
func Do(ctx context.Context, hc *http.Client, baseURL string, body []byte, traceparent string) Result {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+"/simulate", bytes.NewReader(body))
	if err != nil {
		return Result{Retry: true, Transport: true}
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := hc.Do(req)
	if err != nil {
		return Result{Retry: true, Transport: true}
	}
	defer func() {
		// Drain whatever ReadAll's limit left behind before closing, or
		// the transport abandons the connection instead of reusing it.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 64<<10))
		resp.Body.Close()
	}()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBody))
	if err != nil {
		return Result{Retry: true, Transport: true}
	}
	if resp.StatusCode == http.StatusOK {
		var sr sweep.SimulateResponse
		if err := json.Unmarshal(raw, &sr); err != nil {
			return Result{Retry: true}
		}
		return Result{Ok: true, Resp: sr}
	}
	var env struct {
		Error *sweep.APIError `json:"error"`
	}
	if err := json.Unmarshal(raw, &env); err != nil || env.Error == nil {
		// Not our wire format — a crashed backend, a proxy error page.
		return Result{Retry: true}
	}
	if env.Error.Code == sweep.CodeQueueFull {
		return Result{Shed: true,
			WaitHint: time.Duration(env.Error.RetryAfterMS) * time.Millisecond}
	}
	// Deterministic rejections (invalid spec, sim_failed, deadline) recur
	// on any attempt: relay, don't retry.
	return Result{AE: env.Error}
}

// Placer places every cell on one remote dvsd-compatible endpoint — the
// single-backend counterpart of the fleet ring, used by
// `reproduce -server URL`. Transient failures retry with doubling
// backoff; backend 429s are waited out (bounded by shedBudget) without
// charging an attempt. Cells without a wire body fail typed — callers
// that can run them in-process should wrap Placer with a local fallback.
type Placer struct {
	Client  *http.Client
	BaseURL string
	// MaxAttempts bounds tries per cell (first included); default 3.
	MaxAttempts int
	// Backoff is the base retry delay, doubled per attempt up to 2s;
	// default 100ms.
	Backoff time.Duration
}

// shedBudget caps the cumulative 429 wait per cell.
const shedBudget = 30 * time.Second

func (p *Placer) attempts() int {
	if p.MaxAttempts > 0 {
		return p.MaxAttempts
	}
	return 3
}

func (p *Placer) backoff(n int) time.Duration {
	const maxDelay = 2 * time.Second
	d := p.Backoff
	if d <= 0 {
		d = 100 * time.Millisecond
	}
	for i := 1; i < n && d < maxDelay; i++ {
		d <<= 1
	}
	if d > maxDelay || d <= 0 {
		d = maxDelay
	}
	return d
}

func (p *Placer) Place(ctx context.Context, _ int, c sweep.Cell) sweep.Outcome {
	if c.Body == nil {
		return sweep.Outcome{Err: sweep.Errf(http.StatusBadRequest, sweep.CodeBadRequest, "",
			"cell %q is not wire-expressible; it can only run in-process", c.Job.Workload.Name())}
	}
	hc := p.Client
	if hc == nil {
		hc = http.DefaultClient
	}
	failed := 0
	var shedSpent time.Duration
	for {
		if err := ctx.Err(); err != nil {
			return sweep.Outcome{Err: sweep.OutcomeError(err), RawErr: err}
		}
		res := Do(ctx, hc, p.BaseURL, c.Body, "")
		switch {
		case res.Ok:
			r := res.Resp.Result
			return sweep.Outcome{Cached: res.Resp.Cached, Wire: &r}
		case res.AE != nil:
			return sweep.Outcome{Err: res.AE}
		case res.Shed:
			wait := res.WaitHint
			if wait <= 0 {
				wait = p.backoff(1)
			}
			if rem := shedBudget - shedSpent; wait > rem {
				wait = rem
			}
			if wait <= 0 {
				// Shed budget spent: further backpressure is charged as a
				// failed attempt so a saturated backend eventually errors
				// instead of stalling the sweep forever.
				failed++
			} else {
				shedSpent += wait
				sleepCtx(ctx, wait)
				continue
			}
		default:
			failed++
		}
		if failed >= p.attempts() {
			return sweep.Outcome{Err: sweep.Errf(http.StatusBadGateway, sweep.CodeSimFailed, "",
				"backend %s: no usable response after %d attempts", p.BaseURL, failed)}
		}
		sleepCtx(ctx, p.backoff(failed))
	}
}

// sleepCtx waits d or until ctx is done.
func sleepCtx(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
