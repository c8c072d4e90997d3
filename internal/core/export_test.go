package core

import (
	"time"

	"lsl/internal/mux"
)

// Test seams for package core_test. A Listener's handshake timeout and
// resume-table size are defaults, not public knobs; tests shorten them
// before the first Accept.

func (l *Listener) SetHandshakeTimeout(d time.Duration) {
	l.front = mux.NewFront(l.ln, l.accept, mux.FrontConfig{HandshakeTimeout: d})
}

func (l *Listener) SetMaxSessions(n int) { l.maxSessions = n }
