package resilience

import (
	"testing"
	"time"
)

func TestLeaseLifecycle(t *testing.T) {
	t0 := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	l := NewLease(10*time.Second, t0)

	if l.Expired(t0) {
		t.Fatal("fresh lease expired at grant time")
	}
	if l.Expired(t0.Add(9 * time.Second)) {
		t.Fatal("lease expired before TTL")
	}
	if !l.Expired(t0.Add(10 * time.Second)) {
		t.Fatal("lease not expired exactly at TTL (expiry is exclusive)")
	}
	if got := l.Remaining(t0.Add(4 * time.Second)); got != 6*time.Second {
		t.Fatalf("Remaining = %v, want 6s", got)
	}

	// Renewal extends from the renewal instant, not the old expiry.
	l.Renew(t0.Add(8 * time.Second))
	if l.Expired(t0.Add(17 * time.Second)) {
		t.Fatal("renewed lease expired before its new TTL")
	}
	if !l.Expired(t0.Add(18 * time.Second)) {
		t.Fatal("renewed lease outlived its new TTL")
	}
	if got := l.Remaining(t0.Add(8 * time.Second)); got != 10*time.Second {
		t.Fatalf("Remaining after renewal = %v, want the full 10s TTL", got)
	}
}

func TestLeaseResurrection(t *testing.T) {
	t0 := time.Date(2024, 5, 1, 0, 0, 0, 0, time.UTC)
	l := NewLease(time.Second, t0)
	late := t0.Add(time.Hour)
	if !l.Expired(late) {
		t.Fatal("lease should be long expired")
	}
	// Renew after expiry resurrects — the granter's policy decides whether
	// to allow this; the lease itself just does the arithmetic.
	l.Renew(late)
	if l.Expired(late.Add(500 * time.Millisecond)) {
		t.Fatal("resurrected lease expired within its TTL")
	}
}
