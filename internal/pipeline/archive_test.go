package pipeline

import (
	"bytes"
	"errors"
	"math/rand"
	"net/netip"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/mrt"
	"repro/internal/update"
)

// archiveBatch is a batch mixing v4/v6 announcements and withdrawals.
func archiveBatch(n int) []*update.Update {
	batch := make([]*update.Update, n)
	for i := range batch {
		u := mkUpdate(i)
		u.Comms = []uint32{uint32(i), 65001<<16 | 7}
		switch i % 4 {
		case 1:
			u.Withdraw, u.Path, u.Comms = true, nil, nil
		case 2:
			u.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)}), 128)
		case 3:
			u.Prefix = netip.PrefixFrom(netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(i)}), 128)
			u.Withdraw, u.Path, u.Comms = true, nil, nil
		}
		batch[i] = u
	}
	return batch
}

// TestArchiveStageEncodesOncePerBatch: a batch reaches Sink as one call,
// and every record decodes back to its update.
func TestArchiveStageEncodesOncePerBatch(t *testing.T) {
	var sinkCalls int
	var sunk [][]byte
	s := &ArchiveStage{LocalAS: 65000, Sink: func(recs [][]byte) (int, error) {
		sinkCalls++
		for _, r := range recs {
			sunk = append(sunk, slices.Clone(r))
		}
		return len(recs), nil
	}}
	batch := archiveBatch(64)
	s.Process(batch)
	if sinkCalls != 1 {
		t.Fatalf("Sink called %d times, want once", sinkCalls)
	}
	if s.Written() != 64 || s.Failed() != 0 {
		t.Fatalf("written %d failed %d, want 64 and 0", s.Written(), s.Failed())
	}
	for i, wire := range sunk {
		rec, err := mrt.NewReader(bytes.NewReader(wire)).ReadRecord()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		us := rec.CanonicalUpdates()
		want := batch[i]
		if len(us) != 1 || rec.BGP4MP.PeerAS != 65001 || rec.BGP4MP.LocalAS != 65000 {
			t.Fatalf("record %d: %d updates, peer AS%d local AS%d", i, len(us), rec.BGP4MP.PeerAS, rec.BGP4MP.LocalAS)
		}
		got := us[0]
		if got.Prefix != want.Prefix || got.Withdraw != want.Withdraw || !got.Time.Equal(want.Time) ||
			!slices.Equal(got.Path, want.Path) || !slices.Equal(got.Comms, want.Comms) {
			t.Fatalf("record %d decodes to %+v, want %+v", i, got, want)
		}
	}
}

// TestArchiveStageAccountsPartialWrites: whatever Sink manages — a sink
// that stores only some records, an update that cannot be encoded — every
// update lands in exactly one of Written and Failed, and Written counts
// what Sink stored.
func TestArchiveStageAccountsPartialWrites(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		var stored int
		s := &ArchiveStage{LocalAS: 65000, Sink: func(recs [][]byte) (int, error) {
			k := len(recs)
			if r.Intn(2) == 0 {
				k = r.Intn(len(recs))
			}
			stored += k
			if k < len(recs) {
				return k, errors.New("journal failed")
			}
			return k, nil
		}}
		var in int
		for b := 0; b < 5; b++ {
			batch := archiveBatch(1 + r.Intn(100))
			for _, u := range batch {
				if r.Intn(10) == 0 {
					u.Prefix = netip.Prefix{} // cannot be encoded
				}
			}
			in += len(batch)
			s.Process(batch)
		}
		if got := s.Written() + s.Failed(); got != uint64(in) {
			t.Errorf("seed %d: written %d + failed %d = %d, want %d in", seed, s.Written(), s.Failed(), got, in)
			return false
		}
		if s.Written() != uint64(stored) {
			t.Errorf("seed %d: written %d, sink stored %d", seed, s.Written(), stored)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestArchiveStageProcessAllocs: a warm 64-update batch is encoded and
// handed over without allocating.
func TestArchiveStageProcessAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	s := &ArchiveStage{LocalAS: 65000, LocalIP: netip.MustParseAddr("192.0.2.1"),
		Sink: func(recs [][]byte) (int, error) { return len(recs), nil }}
	batch := archiveBatch(64)
	s.Process(batch)
	if allocs := testing.AllocsPerRun(100, func() { s.Process(batch) }); allocs != 0 {
		t.Fatalf("Process allocates %.1f times per 64-update batch, want 0", allocs)
	}
	if s.Failed() != 0 {
		t.Fatalf("%d records failed", s.Failed())
	}
}

// TestArchiveStageWithoutSink: with no Sink the stage encodes nothing —
// an update that could not be encoded is not charged to Failed — and
// still counts every update as written.
func TestArchiveStageWithoutSink(t *testing.T) {
	s := &ArchiveStage{}
	batch := archiveBatch(10)
	batch[3].Prefix = netip.Prefix{} // cannot be encoded
	s.Process(batch)
	if s.Written() != 10 || s.Failed() != 0 {
		t.Fatalf("written %d failed %d, want 10 and 0", s.Written(), s.Failed())
	}
}
