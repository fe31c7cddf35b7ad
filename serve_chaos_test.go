package gill_test

// Serving plane under chaos: the /stream NDJSON endpoint and the /api
// query surface run behind a fault-injected listener (connection resets,
// partial writes, latency) while a BGP peer feeds the daemon over clean
// TCP. The contract under fire: every torn client is cleanly evicted (no
// leaked subscriber, no handler goroutine parked forever), the hub never
// deadlocks (publishes and Close still complete), and the completeness
// ledger balances to zero residual — serving-plane faults must never
// corrupt collection-plane accounting.

import (
	"bufio"
	"context"
	"io"
	"net"
	"net/http"
	"net/netip"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/archive"
	"repro/internal/daemon"
	"repro/internal/faults"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/quality"
	"repro/internal/stream"
	"repro/internal/update"
	"repro/internal/workload"
)

func TestServingPlaneUnderChaos(t *testing.T) {
	reg := metrics.NewRegistry()
	qp := quality.NewPlane(quality.Config{
		Selector: quality.Selector{Seed: 1, Denom: 4},
		Registry: reg,
	})
	hub := stream.NewHub(stream.Config{
		Shards:       2,
		Registry:     reg,
		Keepalive:    50 * time.Millisecond,
		WriteTimeout: 300 * time.Millisecond,
	})

	walDir := t.TempDir()
	wal, err := archive.OpenJournal(walDir, 0)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := index.NewService(walDir, reg)
	if err != nil {
		t.Fatal(err)
	}

	d := daemon.New(daemon.Config{
		LocalAS:    65000,
		Filters:    qualityFilters(),
		RecordSink: wal.AppendBatch,
		Registry:   reg,
		Quality:    qp,
		Publish:    hub.Publish,
	})
	peer := dialQualityPeer(t, d, 65001)

	// The serving plane listens behind the fault injector; the BGP side
	// stays clean — the chaos is aimed at the read path only.
	rawLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.New(faults.Config{
		Seed:        11,
		ResetProb:   0.05,
		PartialProb: 0.05,
		LatencyProb: 0.2,
		Latency:     time.Millisecond,
	})
	mux := http.NewServeMux()
	mux.Handle("/stream", hub.StreamHandler())
	mux.Handle("/api/", http.StripPrefix("/api", ix.Handler()))
	srv := &http.Server{Handler: mux}
	go srv.Serve(inj.Listener(rawLn))
	defer srv.Close()
	base := "http://" + rawLn.Addr().String()

	// Stream clients: read until the connection dies (reset, partial
	// write, or our shutdown). Every outcome is legitimate under chaos;
	// what matters is that the server side fully reclaims each of them.
	var clientLines atomic.Uint64
	var clients sync.WaitGroup
	cctx, stopClients := context.WithCancel(context.Background())
	defer stopClients()
	for i := 0; i < 6; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for cctx.Err() == nil {
				req, _ := http.NewRequestWithContext(cctx, "GET", base+"/stream?within=32.0.0.0/8", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					time.Sleep(time.Millisecond)
					continue // reset mid-handshake: redial, as a real client would
				}
				sc := bufio.NewScanner(resp.Body)
				for sc.Scan() {
					clientLines.Add(1)
				}
				resp.Body.Close()
			}
		}()
	}

	// Query clients hammer /api/query concurrently with the stream chaos.
	var queriesOK atomic.Uint64
	for i := 0; i < 4; i++ {
		clients.Add(1)
		go func() {
			defer clients.Done()
			for cctx.Err() == nil {
				req, _ := http.NewRequestWithContext(cctx, "GET", base+"/api/query?vp=vp65001", nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					continue // reset or torn response: acceptable under chaos
				}
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil && resp.StatusCode == http.StatusOK &&
					strings.Contains(string(body), "\"count\"") {
					queriesOK.Add(1)
				}
				time.Sleep(2 * time.Millisecond)
			}
		}()
	}

	const n = 600
	for _, tu := range workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 9, Prefixes: 50}, n) {
		if err := peer.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitForQuality(t, func() bool { return d.Stats().Received >= n })

	// Both client populations must make real progress through the faulty
	// listener before we tear anything down: streamed lines prove the
	// /stream path works under resets, successful queries prove /api does.
	waitForQuality(t, func() bool {
		return clientLines.Load() > 0 && queriesOK.Load() > 0
	})

	// Tear the clients down and require the hub to reclaim every
	// subscriber: the write deadline turns silently dead connections into
	// errors, so nothing may linger.
	stopClients()
	clients.Wait()
	waitForQuality(t, func() bool { return hub.Subscribers() == 0 })

	// No hub deadlock: publishes still complete and Close returns.
	published := hub.Published()
	hub.Publish(&update.Update{
		VP:     "vp65001",
		Prefix: netip.MustParsePrefix("32.0.0.0/24"),
		Path:   []uint32{65001},
	})
	if hub.Published() != published+1 {
		t.Fatal("hub stopped accepting publishes after chaos")
	}
	done := make(chan struct{})
	go func() { hub.Close(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("hub.Close deadlocked after chaos")
	}

	// Collection-plane accounting is untouched by serving-plane faults.
	if err := d.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	lc := d.LedgerCounts()
	if lc.In != n {
		t.Errorf("ledger In = %d, want %d", lc.In, n)
	}
	if r := lc.Unaccounted(); r != 0 {
		t.Errorf("ledger residual %d under serving chaos, want 0: %+v", r, lc)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	if queriesOK.Load() == 0 {
		t.Error("no /api query ever succeeded — chaos config too hot or API broken")
	}
	if clientLines.Load() == 0 {
		t.Error("no stream client received a single line — serving plane dead under chaos")
	}
}
