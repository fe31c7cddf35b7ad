// Command smokefeed is the smoke tests' traffic source: it dials a running
// gill-daemon as two BGP peers, AS65001 announcing 203.0.113.0/24 and
// AS65002 announcing 198.51.100.0/24, one update from each per round. A
// distinct middle hop per round keeps every update non-redundant. The
// rounds run in three phases: -pre rounds from both peers; an -outage
// during which peer 2 sends nothing while its session stays up (the
// failure the vitals plane exists to catch) and peer 1 keeps feeding; and
// -post rounds from both again. It is test tooling, not an operator
// command.
//
// Usage:
//
//	smokefeed -addr 127.0.0.1:1790 -pre 24                            # serve smoke
//	smokefeed -addr 127.0.0.1:1790 -rate 20 -pre 40 -outage 4s -post 60 # vitals smoke
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/netip"
	"time"

	"repro/internal/bgp"
)

// holdoff is the pause after the last round, so the daemon drains its
// ingest pipeline while the sessions are still up. It stays under the
// vitals smoke's 1.5 s silent-after window, which expects both VPs live
// when the feeder exits.
const holdoff = time.Second

func main() {
	var (
		addr   = flag.String("addr", "127.0.0.1:1790", "daemon BGP listen address")
		rate   = flag.Int("rate", 0, "rounds per second (0: unpaced)")
		pre    = flag.Int("pre", 24, "rounds from both peers before the outage")
		outage = flag.Duration("outage", 0, "peer 2 sends nothing this long, session up (needs -rate)")
		post   = flag.Int("post", 0, "rounds from both peers after the outage")
	)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("smokefeed: ")
	if *outage > 0 && *rate <= 0 {
		log.Fatal("-outage needs -rate: peer 1 keeps feeding through it")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	dial := func(as uint32, rid string) *bgp.Session {
		s, err := bgp.Dial(ctx, *addr, bgp.SpeakerConfig{
			LocalAS: as, RouterID: netip.MustParseAddr(rid), HoldTime: 60,
		})
		if err != nil {
			log.Fatalf("dial AS%d: %v", as, err)
		}
		return s
	}
	sess1 := dial(65001, "192.0.2.11")
	defer sess1.Close()
	sess2 := dial(65002, "192.0.2.12")
	defer sess2.Close()

	var pace <-chan time.Time
	if *rate > 0 {
		tick := time.NewTicker(time.Second / time.Duration(*rate))
		defer tick.Stop()
		pace = tick.C
	}
	send := func(s *bgp.Session, path []uint32, pfx string) {
		u := &bgp.Update{
			Origin: bgp.OriginIGP, ASPath: path,
			NextHop: netip.MustParseAddr("192.0.2.9"),
			NLRI:    []netip.Prefix{netip.MustParsePrefix(pfx)},
		}
		if err := s.Send(u); err != nil {
			log.Fatalf("send %s: %v", pfx, err)
		}
	}
	rounds := 0
	round := func(peer2 bool) {
		if pace != nil {
			select {
			case <-pace:
			case <-ctx.Done():
				log.Fatal("feeder timed out")
			}
		}
		mid := uint32(64512 + rounds%1000)
		send(sess1, []uint32{65001, mid, 64999}, "203.0.113.0/24")
		if peer2 {
			send(sess2, []uint32{65002, mid, 64998}, "198.51.100.0/24")
		}
		rounds++
	}

	for i := 0; i < *pre; i++ {
		round(true)
	}
	if *outage > 0 {
		fmt.Printf("outage: peer 2 silent for %s (session up)\n", *outage)
		for end := time.Now().Add(*outage); time.Now().Before(end); {
			round(false)
		}
		fmt.Printf("resume: peer 2 feeding again\n")
	}
	for i := 0; i < *post; i++ {
		round(true)
	}
	fmt.Printf("sent %d rounds to %s\n", rounds, *addr)

	select {
	case <-time.After(holdoff):
	case <-ctx.Done():
	}
}
