package depot

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Session outcomes recorded in the recent-session ring and used as the
// label on the per-outcome duration histogram.
const (
	OutcomeCompleted     = "completed"
	OutcomeCanceled      = "canceled"
	OutcomeRejectedBusy  = "rejected-busy"
	OutcomeRejectedRoute = "rejected-route"
	OutcomeRejectedProto = "rejected-proto"
	// OutcomeDialFailed marks relay sessions refused because the next hop
	// could not be dialed — distinct from rejected-route (a misrouted
	// header) so operators can tell a dead downstream from a bad route.
	OutcomeDialFailed     = "dial-failed"
	OutcomeStagedDeliver  = "staged-delivered"
	OutcomeStagedAborted  = "staged-aborted"
	OutcomeStagedUpFailed = "staged-upload-failed"
	// OutcomeStagedShed marks staged sessions refused because the global
	// custody budget (Config.MaxTotalStageBytes) was exhausted.
	OutcomeStagedShed = "staged-shed"
)

// Session kinds.
const (
	KindRelay  = "relay"
	KindStaged = "staged"
)

// SessionInfo is an operator-facing snapshot of one session, live or
// recently finished. Byte counts on live sessions are read mid-flight.
type SessionInfo struct {
	ID            string    `json:"id"`
	Kind          string    `json:"kind"`
	Peer          string    `json:"peer,omitempty"`
	NextHop       string    `json:"next_hop,omitempty"`
	Hop           int       `json:"hop"`
	RouteLen      int       `json:"route_len"`
	Started       time.Time `json:"started"`
	BytesForward  uint64    `json:"bytes_forward"`
	BytesBackward uint64    `json:"bytes_backward"`

	// Finished sessions only.
	Outcome         string  `json:"outcome,omitempty"`
	DurationSeconds float64 `json:"duration_seconds,omitempty"`
}

// Snapshot is the full observable session state of a depot: sessions
// relaying right now plus a bounded history of finished ones, newest
// first.
type Snapshot struct {
	Now    time.Time     `json:"now"`
	Live   []SessionInfo `json:"live"`
	Recent []SessionInfo `json:"recent"`
}

// liveSession is the registry's handle on an in-flight session. The
// relay goroutines bump the byte counters lock-free; everything else is
// immutable after registration.
type liveSession struct {
	info     SessionInfo // Started/ID/Kind/Peer/NextHop/Hop/RouteLen
	bytesFwd atomic.Uint64
	bytesBck atomic.Uint64
}

func (ls *liveSession) snapshot() SessionInfo {
	info := ls.info
	info.BytesForward = ls.bytesFwd.Load()
	info.BytesBackward = ls.bytesBck.Load()
	return info
}

// recentSessions is how many finished sessions a depot keeps for
// /sessions.
const recentSessions = 64

// sessionRegistry tracks live sessions and a fixed-size ring of finished
// ones.
type sessionRegistry struct {
	mu     sync.Mutex
	live   map[*liveSession]struct{}
	recent []SessionInfo // ring, oldest at next
	next   int
	filled bool
	// onEnd observes every finished record (Config.OnSessionEnd); invoked
	// outside the registry lock.
	onEnd func(SessionInfo)
}

func newSessionRegistry(capacity int, onEnd func(SessionInfo)) *sessionRegistry {
	return &sessionRegistry{
		live:   make(map[*liveSession]struct{}),
		recent: make([]SessionInfo, capacity),
		onEnd:  onEnd,
	}
}

// add registers an in-flight session and returns its handle.
func (r *sessionRegistry) add(info SessionInfo) *liveSession {
	ls := &liveSession{info: info}
	r.mu.Lock()
	r.live[ls] = struct{}{}
	r.mu.Unlock()
	return ls
}

// finish retires a live session into the ring with its outcome.
func (r *sessionRegistry) finish(ls *liveSession, outcome string, d time.Duration) {
	info := ls.snapshot()
	info.Outcome = outcome
	info.DurationSeconds = d.Seconds()
	r.mu.Lock()
	delete(r.live, ls)
	r.push(info)
	r.mu.Unlock()
	if r.onEnd != nil {
		r.onEnd(info)
	}
}

// record writes a session that never went live (a rejection) straight
// into the ring.
func (r *sessionRegistry) record(info SessionInfo) {
	r.mu.Lock()
	r.push(info)
	r.mu.Unlock()
	if r.onEnd != nil {
		r.onEnd(info)
	}
}

func (r *sessionRegistry) push(info SessionInfo) {
	r.recent[r.next] = info
	r.next++
	if r.next == len(r.recent) {
		r.next = 0
		r.filled = true
	}
}

// snapshot captures live and recent sessions; recent is newest-first.
func (r *sessionRegistry) snapshot() Snapshot {
	r.mu.Lock()
	s := Snapshot{Now: time.Now(), Live: make([]SessionInfo, 0, len(r.live))}
	for ls := range r.live {
		s.Live = append(s.Live, ls.snapshot())
	}
	n := r.next
	if r.filled {
		n = len(r.recent)
	}
	s.Recent = make([]SessionInfo, 0, n)
	for i := 0; i < n; i++ {
		// Walk backward from the most recently written slot.
		idx := (r.next - 1 - i + len(r.recent)) % len(r.recent)
		s.Recent = append(s.Recent, r.recent[idx])
	}
	r.mu.Unlock()
	// Stable order for live sessions: oldest first, ID as tiebreak.
	sort.Slice(s.Live, func(i, j int) bool {
		if !s.Live[i].Started.Equal(s.Live[j].Started) {
			return s.Live[i].Started.Before(s.Live[j].Started)
		}
		return s.Live[i].ID < s.Live[j].ID
	})
	return s
}
