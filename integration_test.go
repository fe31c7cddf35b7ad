package gill_test

// Whole-platform integration: the §8/§9 workflow end to end over real TCP.
// An orchestrator vets peering requests; GILL trains on a simulated
// mirrored stream and distributes filters; a daemon accepts BGP sessions,
// applies the filters, journals MRT, and publishes retained updates on the
// RIS-Live-style /stream feed consumed by a client.

import (
	"context"
	"math/rand"
	"net"
	"net/http/httptest"
	"net/netip"
	"net/url"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/bgp"
	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/index"
	"repro/internal/orchestrator"
	"repro/internal/simulate"
	"repro/internal/stream"
	"repro/internal/topology"
	"repro/internal/update"
)

func TestPlatformIntegration(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// --- 1. Orchestrator: two peers apply, one fails verification.
	registry := orchestrator.VerifierFunc(func(email string, asn uint32) bool {
		return email == "noc@as65001.example" && asn == 65001 ||
			email == "noc@as65002.example" && asn == 65002
	})
	orch := orchestrator.New(registry, nil)
	for _, req := range []orchestrator.PeeringRequest{
		{ASN: 65001, Email: "noc@as65001.example", RouterIP: netip.MustParseAddr("127.0.0.1")},
		{ASN: 65002, Email: "noc@as65002.example", RouterIP: netip.MustParseAddr("127.0.0.1")},
		{ASN: 65666, Email: "evil@example.net", RouterIP: netip.MustParseAddr("127.0.0.1")},
	} {
		if err := orch.SubmitPeering(req); err != nil {
			t.Fatalf("SubmitPeering: %v", err)
		}
	}
	if _, err := orch.ConfirmEmail(65001, "noc@as65001.example"); err != nil {
		t.Fatalf("ConfirmEmail: %v", err)
	}
	if _, err := orch.ConfirmEmail(65002, "noc@as65002.example"); err != nil {
		t.Fatalf("ConfirmEmail: %v", err)
	}
	if _, err := orch.ConfirmEmail(65666, "evil@example.net"); err == nil {
		t.Fatal("unverified peer activated")
	}
	if got := len(orch.Peers()); got != 2 {
		t.Fatalf("peers = %d, want 2", got)
	}

	// --- 2. Train GILL on a simulated mirrored window and load filters.
	topo := topology.Generate(topology.DefaultGenConfig(150), rand.New(rand.NewSource(9)))
	sim := simulate.New(topo, 9)
	ases := topo.ASes()
	vps := []uint32{ases[5], ases[30], ases[60], ases[90], ases[120]}
	coll := simulate.NewCollector(sim, vps, simulate.DefaultCollectorConfig())
	baseline := make(map[string]map[netip.Prefix][]uint32)
	for _, vp := range vps {
		baseline[simulate.VPName(vp)] = coll.RIB(vp)
	}
	t0 := time.Date(2023, 9, 1, 0, 0, 0, 0, time.UTC)
	var mirrored []*update.Update
	link := topo.Links[2]
	for i := 0; i < 5; i++ {
		at := t0.Add(time.Duration(i) * time.Hour)
		mirrored = append(mirrored, coll.Apply(simulate.Event{At: at, Kind: simulate.LinkFail, A: link.A, B: link.B})...)
		mirrored = append(mirrored, coll.Apply(simulate.Event{At: at.Add(20 * time.Minute), Kind: simulate.LinkRestore, A: link.A, B: link.B})...)
	}
	update.Annotate(mirrored)
	cfg := core.DefaultConfig()
	cfg.EventsPerCell = 3
	model := core.Train(core.TrainingData{
		Updates: mirrored, Baseline: baseline,
		Categories: topology.Categorize(topo), TotalVPs: len(vps),
	}, cfg, rand.New(rand.NewSource(9)))
	orch.LoadFilters(model.Filters, 1)
	if due1, _ := orch.Due(); due1 {
		t.Error("component #1 still due after LoadFilters")
	}

	// --- 3. Live feed: the stream hub behind its HTTP handler.
	feed := stream.NewHub(stream.Config{})
	defer feed.Close()
	feedSrv := httptest.NewServer(feed.StreamHandler())
	defer feedSrv.Close()

	// --- 4. Daemon with filters, the journal and the live tee.
	walDir := t.TempDir()
	wal, err := archive.OpenJournal(walDir, 0)
	if err != nil {
		t.Fatalf("OpenJournal: %v", err)
	}
	d := daemon.New(daemon.Config{
		LocalAS:    65000,
		RouterID:   netip.MustParseAddr("192.0.2.1"),
		Filters:    orch.Filters(),
		RecordSink: wal.AppendBatch,
		Publish:    feed.Publish,
	})
	dLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	go func() { _ = d.Serve(ctx, dLn) }()

	// --- 5. A live client subscribes before data flows: Dial returns on
	// the stream's hello line, which the hub writes after subscribing.
	client, err := stream.Dial(ctx, nil, feedSrv.Listener.Addr().String(), url.Values{"vp": {"vp65001"}})
	if err != nil {
		t.Fatalf("stream.Dial: %v", err)
	}
	defer client.Close()

	// --- 6. The approved peers connect and announce.
	sess1, err := bgp.Dial(ctx, dLn.Addr().String(), bgp.SpeakerConfig{
		LocalAS: 65001, RouterID: netip.MustParseAddr("192.0.2.11"), HoldTime: 60,
	})
	if err != nil {
		t.Fatalf("Dial peer 1: %v", err)
	}
	defer sess1.Close()
	sess2, err := bgp.Dial(ctx, dLn.Addr().String(), bgp.SpeakerConfig{
		LocalAS: 65002, RouterID: netip.MustParseAddr("192.0.2.12"), HoldTime: 60,
	})
	if err != nil {
		t.Fatalf("Dial peer 2: %v", err)
	}
	defer sess2.Close()

	send := func(s *bgp.Session, path []uint32, pfx string) {
		u := &bgp.Update{
			Origin: bgp.OriginIGP, ASPath: path,
			NextHop: netip.MustParseAddr("192.0.2.9"),
			NLRI:    []netip.Prefix{netip.MustParsePrefix(pfx)},
		}
		if err := s.Send(u); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	send(sess1, []uint32{65001, 64999}, "203.0.113.0/24")
	send(sess2, []uint32{65002, 100, 200}, "198.51.100.0/24")

	// --- 7. The live client sees exactly vp65001's retained update.
	msg, err := client.Next()
	if err != nil {
		t.Fatalf("client.Next: %v", err)
	}
	if msg.VP != "vp65001" || msg.Prefix != "203.0.113.0/24" {
		t.Errorf("live message: %+v", msg)
	}
	u, err := msg.ToUpdate()
	if err != nil || u.Origin() != 64999 {
		t.Errorf("live payload: %+v err=%v", u, err)
	}

	// --- 8. Counters and archive integrity.
	deadline := time.Now().Add(10 * time.Second)
	for d.Stats().Received < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	st := d.Stats()
	if st.Received != 2 {
		t.Errorf("stats: %+v", st)
	}
	d.Close()
	if err := wal.Close(); err != nil {
		t.Fatalf("journal close: %v", err)
	}
	svc, err := index.NewService(walDir, nil)
	if err != nil {
		t.Fatalf("index: %v", err)
	}
	archived, err := svc.Query(index.Query{})
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(archived) != 2 {
		t.Fatalf("archived %d updates, want 2", len(archived))
	}
}
