package resilience

import (
	"sync"
	"time"
)

// Lease is a time-bounded grant that must be renewed to stay valid — the
// primitive under the fabric's collector liveness tracking, but generic:
// any owner/holder pair that wants "you are mine until T unless you check
// in" semantics can use one. A Lease is a pure clock calculation: it
// never spawns timers, so holders and granters drive it from whatever
// clock (real or test) they already have, and expiry is a question you
// ask ("Expired(now)?") rather than an event you race against.
type Lease struct {
	mu     sync.Mutex
	ttl    time.Duration
	expiry time.Time
}

// NewLease grants a lease valid for ttl past now.
func NewLease(ttl time.Duration, now time.Time) *Lease {
	return &Lease{ttl: ttl, expiry: now.Add(ttl)}
}

// Renew extends the lease to now+TTL. Renewing an expired lease
// resurrects it — the granter decides whether that is allowed before
// calling (the fabric coordinator, for one, discards expired collector
// state instead of renewing it).
func (l *Lease) Renew(now time.Time) {
	l.mu.Lock()
	l.expiry = now.Add(l.ttl)
	l.mu.Unlock()
}

// Expired reports whether the lease has lapsed at now.
func (l *Lease) Expired(now time.Time) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return !now.Before(l.expiry)
}

// Remaining returns the time left at now (negative once expired).
func (l *Lease) Remaining(now time.Time) time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.expiry.Sub(now)
}
