package lsl

import (
	"lsl/internal/experiments"
	"lsl/internal/lslsim"
	"lsl/internal/netsim"
	"lsl/internal/tcpsim"
)

// The simulation surface: the deterministic discrete-event substrate the
// evaluation figures run on. Downstream users can build their own
// topologies and cascades with these types, or replay the paper's
// scenarios through the experiment runners.

// SimEngine is the discrete-event clock and scheduler.
type SimEngine = netsim.Engine

// SimLink is one unidirectional link (rate, delay, queue, loss).
type SimLink = netsim.Link

// SimPath is an ordered sequence of links.
type SimPath = netsim.Path

// SimTime is simulated time in nanoseconds.
type SimTime = netsim.Time

// TCPConfig tunes a simulated TCP connection.
type TCPConfig = tcpsim.Config

// SessionConfig tunes a simulated LSL cascade.
type SessionConfig = lslsim.SessionConfig

// SimHop is one sublink of a simulated cascade.
type SimHop = lslsim.Hop

// SimResult summarizes one simulated transfer.
type SimResult = lslsim.Result

// Scenario is one of the paper's testbed cases.
type Scenario = experiments.Scenario

// FigureSpec identifies one of the paper's evaluation figures.
type FigureSpec = experiments.FigureSpec

// FigureData is a regenerated figure.
type FigureData = experiments.FigureData

// NewSimEngine builds a deterministic engine from a seed.
func NewSimEngine(seed int64) *SimEngine { return netsim.NewEngine(seed) }

// NewSimLink attaches a link to an engine.
func NewSimLink(e *SimEngine, name string, rateBps float64, delay SimTime, queueCap int, loss float64) *SimLink {
	return netsim.NewLink(e, name, rateBps, delay, queueCap, loss)
}

// NewSimPath builds a path over links.
func NewSimPath(e *SimEngine, links ...*SimLink) *SimPath { return netsim.NewPath(e, links...) }

// DefaultTCPConfig mirrors the paper's host configuration (8 MB windows,
// delayed ACKs, SACK).
func DefaultTCPConfig() TCPConfig { return tcpsim.DefaultConfig() }

// DefaultSessionConfig mirrors the prototype's synchronous session mode.
func DefaultSessionConfig() SessionConfig { return lslsim.DefaultSessionConfig() }

// RunSimCascade executes one cascaded transfer on the simulator.
func RunSimCascade(e *SimEngine, hops []SimHop, sess SessionConfig, size int64) SimResult {
	return lslsim.RunCascade(e, hops, sess, size)
}

// RunSimDirect executes one baseline direct-TCP transfer on the simulator.
func RunSimDirect(e *SimEngine, fwd, rev *SimPath, cfg TCPConfig, size int64) SimResult {
	return lslsim.RunDirect(e, fwd, rev, cfg, size)
}

// RunSimParallel executes the PSockets-style baseline: n concurrent
// end-to-end TCP connections splitting size bytes evenly.
func RunSimParallel(e *SimEngine, fwd, rev *SimPath, cfg TCPConfig, n int, size int64) SimResult {
	return lslsim.RunParallelDirect(e, fwd, rev, cfg, n, size)
}

// Scenarios returns the paper's four testbed cases keyed by name
// (case1, case2, case3, osu).
func Scenarios() map[string]Scenario { return experiments.Scenarios() }

// AllFigures enumerates every data figure of the paper (3-29).
func AllFigures() []FigureSpec { return experiments.AllFigures() }

// FigureByID resolves "fig06", "fig6" or "6".
func FigureByID(id string) (FigureSpec, error) { return experiments.FigureByID(id) }

// RunFigure regenerates one figure (iters <= 0 uses the spec default).
func RunFigure(spec FigureSpec, iters int, seed int64) (FigureData, error) {
	return experiments.RunFigure(spec, iters, seed)
}

// HeadlineResult aggregates LSL's improvement across the evaluation (the
// abstract's "average of 40% and as much as 75%" claim).
type HeadlineResult = experiments.HeadlineResult

// RunHeadline measures the aggregate claim.
func RunHeadline(iters int, seed int64) HeadlineResult {
	return experiments.RunHeadline(iters, seed)
}
