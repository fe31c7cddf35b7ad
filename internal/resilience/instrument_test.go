package resilience

import (
	"context"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/metrics"
)

func TestSupervisorRestartCounter(t *testing.T) {
	reg := metrics.NewRegistry()
	runs := 0
	s := &Supervisor{SleepFn: noSleep, Registry: reg}
	err := s.Run(context.Background(), "vp-flap", func(context.Context) error {
		runs++
		if runs < 4 {
			return errors.New("flap")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Run = %v", err)
	}
	if c := reg.Snapshot().Counters["supervisor.vp-flap.restarts"]; c != 3 {
		t.Fatalf("restarts = %d, want 3", c)
	}
}

// flakyListener fails Accept transiently `fail` times, then reports
// net.ErrClosed so the loop exits cleanly.
type flakyListener struct {
	fail int
	seen int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.seen++
	if l.seen <= l.fail {
		return nil, errors.New("transient accept failure")
	}
	return nil, net.ErrClosed
}

func (l *flakyListener) Close() error   { return nil }
func (l *flakyListener) Addr() net.Addr { return &net.TCPAddr{} }

func TestAcceptLoopOptsCountsRetries(t *testing.T) {
	reg := metrics.NewRegistry()
	var hook int
	ln := &flakyListener{fail: 3}
	err := AcceptLoopOpts(context.Background(), ln, AcceptOptions{
		Backoff: Backoff{Base: time.Nanosecond, Jitter: -1},
		Retries: reg.Counter("daemon.accept_retries"),
		OnRetry: func(failures int, err error, delay time.Duration) {
			hook++
			if failures != hook || err == nil {
				t.Errorf("OnRetry(failures=%d, err=%v) at call %d", failures, err, hook)
			}
		},
	}, func(net.Conn) {})
	if err != nil {
		t.Fatalf("AcceptLoopOpts = %v, want clean shutdown", err)
	}
	if c := reg.Snapshot().Counters["daemon.accept_retries"]; c != 3 {
		t.Fatalf("accept_retries = %d, want 3", c)
	}
	if hook != 3 {
		t.Fatalf("OnRetry fired %d times, want 3", hook)
	}
}

func TestAcceptLoopOptsFailureBudget(t *testing.T) {
	boom := errors.New("torn fd")
	calls := 0
	ln := listenerFunc(func() (net.Conn, error) {
		calls++
		return nil, boom
	})
	err := AcceptLoopOpts(context.Background(), ln, AcceptOptions{
		Backoff:     Backoff{Base: time.Nanosecond, Jitter: -1},
		MaxFailures: 4,
	}, func(net.Conn) {})
	if !errors.Is(err, boom) {
		t.Fatalf("AcceptLoopOpts = %v, want the accept error", err)
	}
	if calls != 4 {
		t.Fatalf("Accept called %d times, want 4", calls)
	}
}

type listenerFunc func() (net.Conn, error)

func (f listenerFunc) Accept() (net.Conn, error) { return f() }
func (f listenerFunc) Close() error              { return nil }
func (f listenerFunc) Addr() net.Addr            { return &net.TCPAddr{} }
