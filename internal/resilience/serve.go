package resilience

import (
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/metrics"
)

// DefaultMaxAcceptFailures is AcceptLoopOpts's consecutive-failure
// budget: a listener whose Accept keeps failing (not ErrClosed — a torn
// fd, an exhausted fd table) is eventually surfaced instead of retried
// forever.
const DefaultMaxAcceptFailures = 10

// AcceptOptions parameterizes AcceptLoopOpts; the zero value is usable.
type AcceptOptions struct {
	// Backoff paces retries of transient Accept errors.
	Backoff Backoff
	// MaxFailures bounds consecutive Accept failures (<= 0 selects
	// DefaultMaxAcceptFailures).
	MaxFailures int
	// Retries, when set, counts every transient Accept failure that was
	// retried — the shared registry's accept_retries series.
	Retries *metrics.Counter
	// OnRetry, when set, observes each scheduled retry — the structured
	// logging hook (failures is the consecutive count, 1-based).
	OnRetry func(failures int, err error, delay time.Duration)
}

// AcceptLoopOpts runs a fault-tolerant accept loop on ln: transient
// Accept errors are retried with backoff instead of killing the server,
// and the listener is closed exactly once (here) when ctx ends — closing
// it again elsewhere is harmless to this loop, which treats net.ErrClosed
// as the clean-shutdown signal.
//
// handle receives each accepted connection and must not block (spawn a
// goroutine; track it if shutdown must wait for sessions). It returns nil
// on clean shutdown (ctx done or listener closed), or the last Accept
// error after opts.MaxFailures consecutive failures.
func AcceptLoopOpts(ctx context.Context, ln net.Listener, opts AcceptOptions, handle func(net.Conn)) error {
	maxFailures := opts.MaxFailures
	if maxFailures <= 0 {
		maxFailures = DefaultMaxAcceptFailures
	}
	var once sync.Once
	closeLn := func() { once.Do(func() { ln.Close() }) }
	defer closeLn()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			closeLn()
		case <-stop:
		}
	}()
	failures := 0
	for {
		conn, err := ln.Accept()
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, net.ErrClosed) {
				return nil
			}
			failures++
			if failures >= maxFailures {
				return err
			}
			if opts.Retries != nil {
				opts.Retries.Inc()
			}
			delay := opts.Backoff.Delay(failures - 1)
			if opts.OnRetry != nil {
				opts.OnRetry(failures, err, delay)
			}
			if serr := Sleep(ctx, delay); serr != nil {
				return nil
			}
			continue
		}
		failures = 0
		handle(conn)
	}
}
