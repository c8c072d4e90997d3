package resilience

import "lsl/internal/backoff"

// Test seams for package resilience_test. The retry backoff, the failover
// threshold and the jitter seed are defaults, not public knobs; tests
// shorten or pin them on the Policy they pass to WithPolicy.

func (p *Policy) SetBackoff(b backoff.Policy) { p.backoff = b }

func (p *Policy) SetFailoverAfter(n int) { p.failoverAfter = n }

func (p *Policy) SetJitterSeed(seed int64) { p.jitterSeed = seed }
