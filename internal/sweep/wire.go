// Wire forms of simulation results and the NDJSON sweep stream: one
// record per cell in completion order, then a done trailer. dvsd, dvsgw,
// the checkpoint journal, and every test decode speak exactly these
// shapes — there is one encode/decode pair (see merge.go), not one per
// daemon.
package sweep

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
)

// ResultJSON is the wire form of one simulation's measurements: the
// summary figures the paper's tables are built from, not the full
// per-node traces (those stay library-side — a service response should
// be O(ranks)-free).
type ResultJSON struct {
	Name              string  `json:"name"`
	Strategy          string  `json:"strategy"`
	ElapsedSec        float64 `json:"elapsed_sec"`
	EnergyJ           float64 `json:"energy_j"`
	AvgPowerW         float64 `json:"avg_power_w"`
	EnergyPerNodeJ    float64 `json:"energy_per_node_j"`
	Transitions       int     `json:"transitions"`
	DaemonMoves       int     `json:"daemon_moves,omitempty"`
	AvgTempC          float64 `json:"avg_temp_c"`
	MinLifetimeFactor float64 `json:"min_lifetime_factor"`
	NetMessages       int     `json:"net_messages"`
	NetBytes          int64   `json:"net_bytes"`
}

func ToResultJSON(r core.Result) ResultJSON {
	return ResultJSON{
		Name:              r.Name,
		Strategy:          r.Strategy,
		ElapsedSec:        r.Elapsed.Seconds(),
		EnergyJ:           r.Energy,
		AvgPowerW:         r.AvgPower(),
		EnergyPerNodeJ:    r.EnergyPerNode(),
		Transitions:       r.Transitions,
		DaemonMoves:       r.DaemonMoves,
		AvgTempC:          r.AvgTemperature(),
		MinLifetimeFactor: r.MinLifetimeFactor(),
		NetMessages:       r.Net.Messages,
		NetBytes:          r.Net.Bytes,
	}
}

// ToResult reconstructs the summary subset of a core.Result from its wire
// form. Per-node detail (NodeEnergy, RankStats, TimeAtOp, Thermal) does
// not travel on the wire and stays empty — enough for normalization
// (which needs only Elapsed and Energy) and the tables built from the
// summary figures, but not for per-node analyses like X6's thermal rows.
func (r ResultJSON) ToResult() core.Result {
	return core.Result{
		Name:        r.Name,
		Strategy:    r.Strategy,
		Elapsed:     time.Duration(r.ElapsedSec * float64(time.Second)),
		Energy:      r.EnergyJ,
		Transitions: r.Transitions,
		DaemonMoves: r.DaemonMoves,
	}
}

// SimulateResponse is the POST /simulate success body.
type SimulateResponse struct {
	Cached bool       `json:"cached"`
	Result ResultJSON `json:"result"`
}

// SweepRecord is one NDJSON line of a POST /sweep stream: either a
// completed cell (result set) or a failed one (error set), identified by
// its submission index. Records arrive in completion order.
type SweepRecord struct {
	Index  int         `json:"index"`
	Cached bool        `json:"cached,omitempty"`
	Result *ResultJSON `json:"result,omitempty"`
	Error  *APIError   `json:"error,omitempty"`
}

// SweepTrailer is the final NDJSON line, confirming the stream is
// complete (a client that doesn't see it knows the stream was truncated).
type SweepTrailer struct {
	Done bool `json:"done"`
	Jobs int  `json:"jobs"`
	// CachedCells/Errors count this sweep's cache-served and failed
	// cells. ("cached_cells", not "cached": cell records use "cached"
	// as a bool, and the names must not collide for clients that decode
	// every line into one union shape.)
	CachedCells int `json:"cached_cells"`
	Errors      int `json:"errors"`
}

// OutcomeError maps a job outcome's failure to a typed error. Context
// errors become deadline_exceeded/canceled; anything else is a
// simulation failure.
func OutcomeError(err error) *APIError {
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		return Errf(CodeDeadlineExceeded, "",
			"request deadline expired before the simulation ran")
	case errors.Is(err, context.Canceled):
		return Errf(CodeCanceled, "", "request canceled")
	default:
		return Errf(CodeSimFailed, "", "%v", err)
	}
}
