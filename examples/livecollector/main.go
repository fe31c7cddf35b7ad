// Livecollector: a complete collection deployment over real TCP — an
// orchestrator approves a peering request, a daemon accepts the BGP
// session and runs its sharded ingest pipeline (filter → live feed →
// archive), a synthetic router sends a calibrated update stream, a live
// subscriber consumes the feed, and the resulting MRT archive is read
// back and measured for redundancy.
//
//	go run ./examples/livecollector
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/netip"
	"net/url"
	"time"

	"repro/internal/bgp"
	"repro/internal/daemon"
	"repro/internal/filter"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/orchestrator"
	"repro/internal/stream"
	"repro/internal/update"
	"repro/internal/workload"
)

func main() {
	// 1. The orchestrator vets the new peer (§9's two-step verification).
	registry := orchestrator.VerifierFunc(func(email string, asn uint32) bool {
		return email == "noc@example.net" && asn == 65001
	})
	orch := orchestrator.New(registry, nil)
	if err := orch.SubmitPeering(orchestrator.PeeringRequest{
		ASN: 65001, Email: "noc@example.net",
		RouterIP: netip.MustParseAddr("127.0.0.1"),
	}); err != nil {
		log.Fatal(err)
	}
	peer, err := orch.ConfirmEmail(65001, "noc@example.net")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("peering approved: AS%d from %s\n", peer.ASN, peer.RouterIP)

	// 2. Filters: drop this peer's two noisiest prefixes; everything else
	// follows the accept-everything default.
	fs := filter.NewSet(filter.GranVPPrefix)
	noisy := []netip.Prefix{
		netip.MustParsePrefix("32.0.0.0/24"),
		netip.MustParsePrefix("32.0.1.0/24"),
	}
	for _, p := range noisy {
		fs.AddDropVPPrefix("vp65001", p)
	}
	orch.LoadFilters(fs, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	// 3. The live feed: retained updates stream to subscribers in near
	// real time through the pipeline's live stage and the stream hub,
	// served as NDJSON over HTTP the way gill-daemon's /stream is.
	feed := stream.NewHub(stream.Config{})
	feedLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() { _ = http.Serve(feedLn, feed.StreamHandler()) }()
	// queue=1024: the router below sends its 1000 updates in one burst,
	// and the default 64-event queue would get this subscriber evicted.
	sub, err := stream.Dial(ctx, nil, feedLn.Addr().String(),
		url.Values{"vp": {"vp65001"}, "queue": {"1024"}})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	streamed := make(chan int)
	go func() {
		n := 0
		for {
			if _, err := sub.Next(); err != nil {
				streamed <- n
				return
			}
			n++
		}
	}()

	// 4. The daemon: its ingest path is the sharded pipeline
	// filter → live → archive, with per-stage accounting.
	var archive bytes.Buffer
	metricsReg := metrics.NewRegistry()
	d := daemon.New(daemon.Config{
		LocalAS:  65000,
		RouterID: netip.MustParseAddr("192.0.2.1"),
		Filters:  orch.Filters(),
		Out:      &archive,
		Publish:  feed.Publish,
		Registry: metricsReg,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		_ = d.ServeConn(ctx, conn)
	}()

	// 5. The "router": a real BGP speaker sending a calibrated stream.
	sess, err := bgp.Dial(ctx, ln.Addr().String(), bgp.SpeakerConfig{
		LocalAS:  65001,
		RouterID: netip.MustParseAddr("192.0.2.9"),
		HoldTime: 90,
	})
	if err != nil {
		log.Fatal(err)
	}
	const n = 1000
	for _, tu := range workload.Stream(workload.StreamConfig{
		PeerAS: 65001, Seed: 3, Prefixes: 40,
	}, n) {
		if err := sess.Send(tu.Update); err != nil {
			log.Fatal(err)
		}
	}
	// Let the daemon drain, then close (drains + flushes the pipeline).
	for d.Stats().Received < n {
		time.Sleep(10 * time.Millisecond)
	}
	sess.Close()
	if err := d.Close(); err != nil {
		log.Fatal(err)
	}

	s := d.Stats()
	fmt.Printf("daemon: received=%d filtered=%d written=%d lost=%d\n",
		s.Received, s.Filtered, s.Written, s.Lost)
	snap := d.PipelineSnapshot()
	for _, st := range snap.Stages {
		fmt.Printf("  stage %-8s in=%-5d out=%-5d dropped=%d\n",
			st.Name, st.In, st.Out, st.Dropped)
	}
	fmt.Printf("  mean batch %.1f updates across %d batches\n",
		snap.BatchSizes.Mean(), snap.BatchSizes.Count)

	feed.Close()
	fmt.Printf("live feed: %d updates streamed to the subscriber\n", <-streamed)

	// 6. Read the MRT archive back and measure how much of what was
	// archived is redundant under §4.2 Definition 1.
	var replayed []*update.Update
	r := mrt.NewReader(bytes.NewReader(archive.Bytes()))
	records, droppedNoisy := 0, 0
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			log.Fatalf("corrupt archive: %v", err)
		}
		records++
		for _, u := range rec.CanonicalUpdates() {
			for _, p := range noisy {
				if u.Prefix == p && !u.Withdraw {
					droppedNoisy++
				}
			}
			replayed = append(replayed, u)
		}
	}
	fmt.Printf("archive: %d MRT records; filtered prefixes appearing: %d (want 0)\n",
		records, droppedNoisy)

	redundant := 0
	for _, r := range update.MarkRedundant(update.Def1, replayed) {
		if r {
			redundant++
		}
	}
	fmt.Printf("replay: %d/%d archived updates redundant under Definition 1\n",
		redundant, len(replayed))
	fmt.Printf("metrics:\n%s\n", metricsReg.Snapshot())
}
