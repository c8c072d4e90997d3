package gossip

import (
	"time"

	"lsl/internal/backoff"
)

// Test seams for package gossip_test. A peer's backoff and an exchange's
// timeout are defaults, not public knobs; tests change them on a new
// Gossiper before it runs.

func (g *Gossiper) SetBackoff(p backoff.Policy) { g.backoff = p }

func (g *Gossiper) SetExchangeTimeout(d time.Duration) { g.exchangeTimeout = d }
