package core

import "time"

// Test seams for package core_test. A Listener's handshake timeout,
// resume-table size and resume TTL are defaults, not public knobs; tests
// shorten them before the first Accept.

func (l *Listener) SetHandshakeTimeout(d time.Duration) { l.handshakeTimeout = d }

func (l *Listener) SetMaxSessions(n int) { l.maxSessions = n }

func (l *Listener) SetSessionTTL(d time.Duration) { l.sessionTTL = d }

// The Listener's bounds on handshakes and trunks in flight.
const (
	MaxHandshakes = maxHandshakes
	MaxTrunks     = maxTrunks
)
