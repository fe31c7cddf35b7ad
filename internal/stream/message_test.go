package stream

import (
	"net/netip"
	"testing"
	"time"

	"repro/internal/update"
)

func TestMessageRoundTrip(t *testing.T) {
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	u := &update.Update{
		VP:     "vp65001",
		Time:   t0,
		Prefix: netip.MustParsePrefix("203.0.113.0/24"),
		Path:   []uint32{65001, 2, 3},
		Comms:  []uint32{7},
	}
	m := ToMessage(u)
	got, err := m.ToUpdate()
	if err != nil {
		t.Fatalf("ToUpdate: %v", err)
	}
	if got.VP != u.VP || got.Prefix != u.Prefix || !got.Time.Equal(u.Time) {
		t.Errorf("round trip mismatch: %+v", got)
	}
	if len(got.Path) != 3 || got.Path[0] != 65001 {
		t.Errorf("path mismatch: %v", got.Path)
	}
	// Withdrawals round-trip too.
	w := &update.Update{VP: "vpX", Time: t0, Prefix: u.Prefix, Withdraw: true}
	m2 := ToMessage(w)
	got2, err := m2.ToUpdate()
	if err != nil || !got2.Withdraw {
		t.Errorf("withdraw round trip: %+v err=%v", got2, err)
	}
	// Bad prefix rejected.
	if _, err := (&Message{Prefix: "junk"}).ToUpdate(); err == nil {
		t.Error("junk prefix accepted")
	}
}
