package resilience

import (
	"context"
	"errors"
	"testing"
	"time"
)

func TestBackoffGrowthAndCap(t *testing.T) {
	b := Backoff{Base: 10 * time.Millisecond, Max: 80 * time.Millisecond, Factor: 2, Jitter: -1}
	want := []time.Duration{10, 20, 40, 80, 80, 80}
	for i, w := range want {
		if got := b.Delay(i); got != w*time.Millisecond {
			t.Errorf("Delay(%d) = %v, want %v", i, got, w*time.Millisecond)
		}
	}
}

func TestBackoffJitterBoundsAndDeterminism(t *testing.T) {
	b := Backoff{Base: 100 * time.Millisecond, Max: time.Hour, Factor: 1, Jitter: 0.2, Seed: 7}
	same := Backoff{Base: 100 * time.Millisecond, Max: time.Hour, Factor: 1, Jitter: 0.2, Seed: 7}
	other := Backoff{Base: 100 * time.Millisecond, Max: time.Hour, Factor: 1, Jitter: 0.2, Seed: 8}
	var varied bool
	for i := 0; i < 200; i++ {
		d := b.Delay(i)
		lo, hi := 80*time.Millisecond, 120*time.Millisecond
		if d < lo || d > hi {
			t.Fatalf("Delay(%d) = %v outside [%v, %v]", i, d, lo, hi)
		}
		if d != same.Delay(i) {
			t.Fatalf("same seed diverged at attempt %d", i)
		}
		if d != other.Delay(i) {
			varied = true
		}
	}
	if !varied {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestBackoffDefaults(t *testing.T) {
	var b Backoff
	if d := b.Delay(0); d < time.Duration(float64(DefaultBase)*(1-DefaultJitter)) ||
		d > time.Duration(float64(DefaultBase)*(1+DefaultJitter)) {
		t.Fatalf("zero-value Delay(0) = %v not within jitter of %v", d, DefaultBase)
	}
	if d := b.Delay(1000); d > time.Duration(float64(DefaultMax)*(1+DefaultJitter)) {
		t.Fatalf("zero-value Delay(1000) = %v exceeds jittered cap", d)
	}
}

func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestSupervisorRestartsUntilNil(t *testing.T) {
	runs := 0
	s := &Supervisor{SleepFn: noSleep}
	err := s.Run(context.Background(), "sess", func(context.Context) error {
		runs++
		if runs < 5 {
			return errors.New("flap")
		}
		return nil
	})
	if err != nil || runs != 5 {
		t.Fatalf("Run = %v after %d runs, want nil after 5", err, runs)
	}
}

func TestSupervisorGivesUp(t *testing.T) {
	runs := 0
	var events []EventKind
	s := &Supervisor{
		MaxRestarts: 2,
		SleepFn:     noSleep,
		OnEvent:     func(e Event) { events = append(events, e.Kind) },
	}
	err := s.Run(context.Background(), "sess", func(context.Context) error {
		runs++
		return errors.New("flap")
	})
	if !errors.Is(err, ErrRestartsExceeded) {
		t.Fatalf("Run = %v, want ErrRestartsExceeded", err)
	}
	if runs != 3 { // initial run + 2 restarts
		t.Fatalf("ran %d times, want 3", runs)
	}
	var gaveUp bool
	for _, k := range events {
		if k == EventGiveUp {
			gaveUp = true
		}
	}
	if !gaveUp {
		t.Fatal("no EventGiveUp emitted")
	}
}

func TestSupervisorLongRunResetsBudget(t *testing.T) {
	now := time.Unix(0, 0)
	runs := 0
	s := &Supervisor{
		MaxRestarts: 2,
		ResetAfter:  time.Minute,
		SleepFn:     noSleep,
		Clock:       func() time.Time { return now },
	}
	err := s.Run(context.Background(), "sess", func(context.Context) error {
		runs++
		// Every run "lasts" two minutes, so the consecutive-failure count
		// resets each time; the supervisor must keep restarting well past
		// MaxRestarts until the deliberate stop.
		now = now.Add(2 * time.Minute)
		if runs < 10 {
			return errors.New("flap")
		}
		return nil
	})
	if err != nil || runs != 10 {
		t.Fatalf("Run = %v after %d runs, want nil after 10", err, runs)
	}
}

func TestSupervisorPermanentStops(t *testing.T) {
	runs := 0
	s := &Supervisor{SleepFn: noSleep}
	boom := errors.New("config rejected")
	err := s.Run(context.Background(), "sess", func(context.Context) error {
		runs++
		return Permanent(boom)
	})
	if !errors.Is(err, boom) || runs != 1 {
		t.Fatalf("Run = %v after %d runs, want permanent after 1", err, runs)
	}
}

func TestSupervisorContextEnds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	s := &Supervisor{SleepFn: noSleep}
	err := s.Run(ctx, "sess", func(context.Context) error {
		cancel()
		return errors.New("flap")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}
