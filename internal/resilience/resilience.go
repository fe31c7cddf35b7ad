// Package resilience is the fault-tolerance toolkit of the collection
// path. GILL's premise — peer with thousands of VPs and never lose a
// non-redundant update (§4, §7) — only holds if collection survives the
// steady-state faults of a platform that big: session flaps, slow disks,
// unreachable control planes, daemon restarts. The package provides the
// small set of mechanisms the rest of the tree composes: exponential
// backoff with deterministic jitter, a per-session Supervisor, a shared
// accept loop, and time-bounded leases. Everything is stdlib-only and clock/sleep
// injectable so failure behavior is testable without real time.
package resilience

import (
	"context"
	"errors"
	"time"
)

// Default backoff parameters. The collection path leans toward fast
// first retries (a flapped TCP session usually comes back immediately)
// with a bounded ceiling so a dead peer costs one probe per MaxDelay.
const (
	DefaultBase   = 100 * time.Millisecond
	DefaultMax    = 30 * time.Second
	DefaultFactor = 2.0
	DefaultJitter = 0.2
)

// Backoff computes exponential retry delays with deterministic jitter.
// The zero value is usable and selects the defaults above. Backoff is
// stateless: Delay derives the jitter for attempt n from (Seed, n) alone,
// so concurrent sessions can share one Backoff and a test that fixes Seed
// sees reproducible schedules.
type Backoff struct {
	// Base is the delay before the first retry (attempt 0).
	Base time.Duration
	// Max caps the delay; growth stops there.
	Max time.Duration
	// Factor multiplies the delay each attempt (values < 1 mean default).
	Factor float64
	// Jitter is the ± fraction applied to each delay (0.2 → ±20%).
	// Negative disables jitter entirely.
	Jitter float64
	// Seed makes the jitter sequence deterministic; two Backoffs with the
	// same parameters and Seed produce identical schedules.
	Seed int64
}

func (b Backoff) base() time.Duration {
	if b.Base > 0 {
		return b.Base
	}
	return DefaultBase
}

func (b Backoff) max() time.Duration {
	if b.Max > 0 {
		return b.Max
	}
	return DefaultMax
}

func (b Backoff) factor() float64 {
	if b.Factor >= 1 {
		return b.Factor
	}
	return DefaultFactor
}

func (b Backoff) jitter() float64 {
	if b.Jitter < 0 {
		return 0
	}
	if b.Jitter == 0 {
		return DefaultJitter
	}
	return b.Jitter
}

// Delay returns the delay before retry number attempt (0-based):
// Base·Factor^attempt, capped at Max, with ±Jitter applied
// deterministically from (Seed, attempt).
func (b Backoff) Delay(attempt int) time.Duration {
	if attempt < 0 {
		attempt = 0
	}
	d := float64(b.base())
	f := b.factor()
	mx := float64(b.max())
	for i := 0; i < attempt; i++ {
		d *= f
		if d >= mx {
			d = mx
			break
		}
	}
	if d > mx {
		d = mx
	}
	if j := b.jitter(); j > 0 {
		// splitmix64 over (Seed, attempt) → uniform in [-j, +j]. Stateless,
		// so no locking and full determinism under a fixed Seed.
		u := splitmix64(uint64(b.Seed)*0x9e3779b97f4a7c15 + uint64(attempt) + 1)
		frac := float64(u>>11) / float64(1<<53) // [0, 1)
		d *= 1 + j*(2*frac-1)
	}
	if d < 0 {
		d = 0
	}
	return time.Duration(d)
}

// JitterFraction derives a uniform value in [-1, 1) from (seed, n) —
// the same stateless scheme Backoff uses, exported so other schedulers
// (the orchestrator's refresh periods, for one) can jitter
// deterministically without sharing RNG state.
func JitterFraction(seed int64, n uint64) float64 {
	u := splitmix64(uint64(seed)*0x9e3779b97f4a7c15 + n + 1)
	return 2*(float64(u>>11)/float64(1<<53)) - 1
}

// splitmix64 is the SplitMix64 mixing function — a cheap, well-distributed
// stateless hash for jitter derivation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Sleep waits for d or until ctx is done, returning ctx.Err() in the
// latter case. It is the default sleeper for Supervisor.
func Sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// permanentError marks an error as non-retryable.
type permanentError struct{ err error }

func (p *permanentError) Error() string { return p.err.Error() }
func (p *permanentError) Unwrap() error { return p.err }

// Permanent wraps err so Supervisor stops instead of restarting.
// A nil err returns nil.
func Permanent(err error) error {
	if err == nil {
		return nil
	}
	return &permanentError{err: err}
}

// IsPermanent reports whether err (or anything it wraps) was marked with
// Permanent.
func IsPermanent(err error) bool {
	var p *permanentError
	return errors.As(err, &p)
}
