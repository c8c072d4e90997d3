// Package tcpmodel provides closed-form TCP performance estimates used two
// ways in this reproduction:
//
//  1. As the objective function for LSL path planning (internal/route):
//     deciding whether detouring a session through a depot chain is
//     predicted to beat the direct connection for a given transfer size,
//     exactly the "network logistics" decision the paper's session layer
//     exists to make.
//  2. As an independent cross-check on the simulator: steady-state
//     throughput under random loss should track the Mathis et al.
//     macroscopic model (the paper's citation [25]), and small-transfer
//     times should track the slow-start episode model.
package tcpmodel

import "math"

// MathisThroughputBps returns the classic macroscopic steady-state TCP
// throughput bound  MSS/RTT * C/sqrt(p)  in bits per second, with
// C = sqrt(3/2) ≈ 1.22 (delayed-ACK variants lower C; this is the standard
// headline constant). rttSeconds must be > 0; p in (0,1].
func MathisThroughputBps(mssBytes int, rttSeconds, lossProb float64) float64 {
	if rttSeconds <= 0 || lossProb <= 0 {
		return math.Inf(1)
	}
	c := math.Sqrt(1.5)
	return float64(mssBytes*8) / rttSeconds * c / math.Sqrt(lossProb)
}

// PathParams describes one TCP hop (direct path or LSL sublink) for the
// analytic models.
type PathParams struct {
	RTTSeconds    float64 // round-trip propagation + typical queueing
	BottleneckBps float64 // lowest link rate on the hop
	LossProb      float64 // per-segment random loss probability
	MSSBytes      int
	InitialWindow int  // segments; default 2
	DelayedAcks   bool // halves slow-start growth rate
}

func (p PathParams) mss() int {
	if p.MSSBytes <= 0 {
		return 1460
	}
	return p.MSSBytes
}

func (p PathParams) iw() float64 {
	if p.InitialWindow <= 0 {
		return 2
	}
	return float64(p.InitialWindow)
}

// growthFactor is the slow-start per-RTT multiplier: 2 with ACK-per-segment,
// 1.5 with delayed ACKs.
func (p PathParams) growthFactor() float64 {
	if p.DelayedAcks {
		return 1.5
	}
	return 2
}

// SteadyBps returns the sustainable throughput of the hop: the bottleneck
// rate capped by the Mathis loss/RTT bound.
func (p PathParams) SteadyBps() float64 {
	s := MathisThroughputBps(p.mss(), p.RTTSeconds, p.LossProb)
	if p.BottleneckBps > 0 && p.BottleneckBps < s {
		return p.BottleneckBps
	}
	return s
}

// TransferSeconds estimates the completion time of a size-byte transfer on
// the hop: connection setup (1.5 RTT: SYN, SYN-ACK, first data flight
// reaching the receiver half an RTT later is folded into the ramp), the
// slow-start ramp, then steady-state draining. It integrates the
// exponential ramp exactly rather than assuming instant window growth,
// which is what makes small transfers RTT-dominated (paper Figures 5/7/29).
func (p PathParams) TransferSeconds(size int64) float64 {
	if size <= 0 {
		return 0
	}
	rtt := p.RTTSeconds
	g := p.growthFactor()
	mss := float64(p.mss())
	steadyBytesPerRTT := p.SteadyBps() * rtt / 8

	setup := 1.5 * rtt
	sent := 0.0
	w := p.iw() * mss
	t := setup
	// Slow-start rounds: each RTT delivers the current window, then the
	// window multiplies by g, until the per-RTT delivery reaches the
	// steady-state rate or the transfer completes.
	for w < steadyBytesPerRTT {
		if sent+w >= float64(size) {
			// Fraction of the final round.
			frac := (float64(size) - sent) / w
			return t + frac*rtt + 0.5*rtt // +0.5 RTT for last bytes to land
		}
		sent += w
		t += rtt
		w *= g
	}
	remaining := float64(size) - sent
	if remaining > 0 {
		t += remaining / (p.SteadyBps() / 8)
	}
	return t + 0.5*rtt
}

// TransferBps returns the average throughput implied by TransferSeconds.
func (p PathParams) TransferBps(size int64) float64 {
	s := p.TransferSeconds(size)
	if s <= 0 {
		return 0
	}
	return float64(size) * 8 / s
}

// DepotChunkBytes is the depot store-and-forward granularity assumed by
// the cascade model (matching lslsim's default ChunkSize).
const DepotChunkBytes = 64 << 10

// CascadeTransferSeconds estimates a cascaded (LSL) transfer over the given
// sublinks with per-depot forwarding latency depotDelay (seconds per
// traversal) and a serialized session setup: the initiator dials hop 1,
// the depot dials hop 2, and so on, then a session-accept confirmation
// returns end-to-end before data flows (the synchronous connection case in
// the paper's §IV).
//
// In steady state the cascade drains at the minimum of the hops' rates;
// the pipeline fill adds each hop's ramp only once. The model approximates
// the cascade time as: serialized setup + the slowest hop's transfer time
// computed at the cascade's bottleneck steady rate + downstream fill
// latency.
func CascadeTransferSeconds(size int64, hops []PathParams, depotDelay float64) float64 {
	if len(hops) == 0 {
		return 0
	}
	if len(hops) == 1 {
		return hops[0].TransferSeconds(size)
	}
	// Serialized connection setup: 1.5 RTT per hop plus depot processing,
	// plus a half-RTT-per-hop accept confirmation returning to the source.
	setup := 0.0
	for _, h := range hops {
		setup += 1.5*h.RTTSeconds + depotDelay
	}
	for _, h := range hops {
		setup += 0.5 * h.RTTSeconds
	}
	// The cascade's sustainable rate is the per-hop minimum.
	bottleneck := math.Inf(1)
	for _, h := range hops {
		if s := h.SteadyBps(); s < bottleneck {
			bottleneck = s
		}
	}
	// Depots forward in store-and-forward chunks (DepotChunkBytes): a
	// transfer no larger than one chunk gets no pipelining at all — the
	// hops run strictly in sequence. This is what makes very small LSL
	// transfers lose to direct TCP (paper Figure 5's 32K point).
	if size <= DepotChunkBytes {
		total := setup
		for _, h := range hops {
			total += h.TransferSeconds(size) - 1.5*h.RTTSeconds + depotDelay
		}
		return total
	}
	// The slowest individual hop (its own ramp at its own RTT) dominates
	// the streaming phase; downstream hops add fill latency of half their
	// RTT plus depot forwarding.
	worst := 0.0
	for i, h := range hops {
		hh := h
		if hh.BottleneckBps == 0 || bottleneck < hh.BottleneckBps {
			hh.BottleneckBps = bottleneck
		}
		tr := hh.TransferSeconds(size) - 1.5*hh.RTTSeconds // setup counted separately
		fill := 0.0
		for j, g := range hops {
			if j != i {
				fill += 0.5*g.RTTSeconds + depotDelay
			}
		}
		if tr+fill > worst {
			worst = tr + fill
		}
	}
	return setup + worst
}
