package daemon

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"net/netip"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/workload"
)

// dialPeer connects a fake peer to the daemon over loopback TCP and
// returns the peer-side session.
func dialPeer(t *testing.T, d *Daemon, peerAS uint32) *bgp.Session {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go func() {
		conn, err := ln.Accept()
		ln.Close()
		if err != nil {
			return
		}
		_ = d.ServeConn(ctx, conn)
	}()
	hctx, hcancel := context.WithTimeout(ctx, 10*time.Second)
	defer hcancel()
	sess, err := bgp.Dial(hctx, ln.Addr().String(), bgp.SpeakerConfig{
		LocalAS:  peerAS,
		RouterID: netip.AddrFrom4([4]byte{192, 0, 2, byte(peerAS)}),
		HoldTime: 60,
	})
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { sess.Close() })
	return sess
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached")
}

// archiveBuffer is a RecordSink that keeps every record it is handed, in
// arrival order, as one MRT byte stream.
type archiveBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (a *archiveBuffer) sink(recs [][]byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for _, r := range recs {
		a.buf.Write(r)
	}
	return len(recs), nil
}

// reader reads back what the sink has stored so far.
func (a *archiveBuffer) reader() *mrt.Reader {
	a.mu.Lock()
	defer a.mu.Unlock()
	return mrt.NewReader(bytes.NewReader(bytes.Clone(a.buf.Bytes())))
}

func TestDaemonCollectsOverTCP(t *testing.T) {
	var out archiveBuffer
	d := New(Config{LocalAS: 65000, RecordSink: out.sink})
	defer d.Close()
	peer := dialPeer(t, d, 65001)

	stream := workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 1, Prefixes: 50}, 200)
	for _, tu := range stream {
		if err := peer.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, func() bool { return d.Stats().Received >= 200 })
	waitFor(t, func() bool { return d.Stats().Written >= 200 })
	st := d.Stats()
	if st.Lost != 0 {
		t.Errorf("lost %d updates at trivial load", st.Lost)
	}
	if st.Filtered != 0 {
		t.Errorf("filtered %d without filters", st.Filtered)
	}

	// The MRT archive must parse back.
	r := out.reader()
	n := 0
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("archive corrupt after %d records: %v", n, err)
		}
		if rec.BGP4MP.PeerAS != 65001 {
			t.Fatalf("wrong peer AS %d", rec.BGP4MP.PeerAS)
		}
		n++
	}
	if n != 200 {
		t.Errorf("archived %d records, want 200", n)
	}
}

func TestDaemonAppliesFilters(t *testing.T) {
	fs := filter.NewSet(filter.GranVPPrefix)
	// Drop everything from vp65001 for the 20 hottest prefixes.
	for i := 0; i < 50; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{32, byte(i >> 8), byte(i), 0}), 24)
		fs.AddDropVPPrefix("vp65001", p)
	}
	d := New(Config{LocalAS: 65000, Filters: fs})
	defer d.Close()
	peer := dialPeer(t, d, 65001)
	stream := workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 2, Prefixes: 50}, 300)
	for _, tu := range stream {
		if err := peer.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, func() bool { return d.Stats().Received >= 300 })
	// Wait for the pipeline to drain so the accounting is exact.
	waitFor(t, func() bool {
		st := d.Stats()
		return st.Filtered+st.Written+st.Lost >= st.Received
	})
	st := d.Stats()
	if st.Filtered == 0 {
		t.Error("filters matched nothing")
	}
	if st.Filtered+st.Written+st.Lost != st.Received {
		t.Errorf("accounting mismatch: %+v", st)
	}
}

func TestDaemonLossUnderOverload(t *testing.T) {
	// A stalled archive must lose updates rather than stall the BGP
	// session (the Table 1 mechanism). The sink blocks until the gate
	// opens, so each shard holds at most its 1024 queue slots plus the one
	// 64-update batch stuck in the sink: of more updates than that, some
	// are lost before the gate opens.
	gate := make(chan struct{})
	d := New(Config{
		LocalAS: 65000,
		RecordSink: func(recs [][]byte) (int, error) {
			<-gate
			return len(recs), nil
		},
	})
	defer d.Close()
	peer := dialPeer(t, d, 65001)
	const held = pipelineShards * (4096/pipelineShards + 64)
	const n = held + 500
	stream := workload.Stream(workload.StreamConfig{PeerAS: 65001, Seed: 3, Prefixes: 100}, n)
	for _, tu := range stream {
		if err := peer.Send(tu.Update); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	// Received counts an update just before offering it to the pipeline.
	waitFor(t, func() bool { return d.Stats().Received >= n })
	if st := d.Stats(); st.Lost < n-1-held {
		t.Errorf("lost %d of %d updates with the archive stalled, want at least %d", st.Lost, n, n-1-held)
	}
	if d.Stats().LossFraction() <= 0 {
		t.Error("loss fraction not reported")
	}
	close(gate)
	waitFor(t, func() bool {
		st := d.Stats()
		return st.Written+st.Lost == n
	})
}

func TestDumpRIB(t *testing.T) {
	var out archiveBuffer
	d := New(Config{LocalAS: 65000, RecordSink: out.sink})
	defer d.Close()
	peer := dialPeer(t, d, 65001)
	// Announce three prefixes, then withdraw one.
	ps := []netip.Prefix{
		netip.MustParsePrefix("203.0.113.0/24"),
		netip.MustParsePrefix("198.51.100.0/24"),
		netip.MustParsePrefix("192.0.2.0/24"),
	}
	comm := bgp.Community(65001<<16 | 100)
	for _, p := range ps {
		u := &bgp.Update{
			Origin: bgp.OriginIGP, ASPath: []uint32{65001, 64999},
			NextHop: netip.MustParseAddr("192.0.2.5"), NLRI: []netip.Prefix{p},
			Communities: []bgp.Community{comm},
		}
		if err := peer.Send(u); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	if err := peer.Send(&bgp.Update{Withdrawn: ps[2:]}); err != nil {
		t.Fatalf("Send withdraw: %v", err)
	}
	waitFor(t, func() bool { return d.Stats().Written >= 4 })

	// The peer table names the session as the archive's BGP4MP records do.
	arch, err := out.reader().ReadRecord()
	if err != nil {
		t.Fatalf("archive: %v", err)
	}
	var buf bytes.Buffer
	if err := d.DumpRIB(&buf); err != nil {
		t.Fatalf("DumpRIB: %v", err)
	}
	r := mrt.NewReader(bytes.NewReader(buf.Bytes()))
	rec, err := r.ReadRecord()
	if err != nil || rec.PeerIndex == nil {
		t.Fatalf("first record not a peer index: %v %+v", err, rec)
	}
	want := mrt.Peer{
		BGPID: netip.AddrFrom4([4]byte{192, 0, 2, 65001 & 0xff}), // dialPeer's router ID
		IP:    netip.MustParseAddr("127.0.0.1"),
		AS:    65001,
	}
	if len(rec.PeerIndex.Peers) != 1 || rec.PeerIndex.Peers[0] != want {
		t.Errorf("peer table %+v, want [%+v]", rec.PeerIndex.Peers, want)
	}
	if arch.BGP4MP.PeerIP != want.IP {
		t.Errorf("archive stamps peer %v, dump %v", arch.BGP4MP.PeerIP, want.IP)
	}
	prefixes := map[netip.Prefix]bool{}
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadRecord: %v", err)
		}
		prefixes[rec.RIB.Prefix] = true
		for _, e := range rec.RIB.Entries {
			if got := e.Attrs.Communities; len(got) != 1 || got[0] != comm {
				t.Errorf("%v: communities %v, want [%v]", rec.RIB.Prefix, got, comm)
			}
		}
	}
	if len(prefixes) != 2 {
		t.Errorf("RIB has %d prefixes, want 2 (one withdrawn): %v", len(prefixes), prefixes)
	}
	if prefixes[ps[2]] {
		t.Error("withdrawn prefix still in RIB")
	}
}

// TestDumpRIBPrefixOrderDeterministic: prefixes that share an address
// (10.0.0.0/8 and /16, 2001:db8::/32 and /48) must not come out in map
// order. Twenty dumps of one RIB are byte-identical, and the shorter
// prefix of each pair comes first.
func TestDumpRIBPrefixOrderDeterministic(t *testing.T) {
	at := time.Date(2026, 10, 1, 0, 0, 0, 0, time.UTC)
	d := New(Config{LocalAS: 65000, Clock: func() time.Time { return at }})
	defer d.Close()
	peer := dialPeer(t, d, 65001)
	want := []netip.Prefix{
		netip.MustParsePrefix("10.0.0.0/8"),
		netip.MustParsePrefix("10.0.0.0/16"),
		netip.MustParsePrefix("2001:db8::/32"),
		netip.MustParsePrefix("2001:db8::/48"),
	}
	for _, p := range want {
		u := &bgp.Update{Origin: bgp.OriginIGP, ASPath: []uint32{65001, 64999}}
		if p.Addr().Is6() {
			u.V6NextHop, u.V6NLRI = netip.MustParseAddr("2001:db8::5"), []netip.Prefix{p}
		} else {
			u.NextHop, u.NLRI = netip.MustParseAddr("192.0.2.5"), []netip.Prefix{p}
		}
		if err := peer.Send(u); err != nil {
			t.Fatalf("Send: %v", err)
		}
	}
	waitFor(t, func() bool { return d.Stats().Received >= uint64(len(want)) })

	var first []byte
	for i := 0; i < 20; i++ {
		var buf bytes.Buffer
		if err := d.DumpRIB(&buf); err != nil {
			t.Fatalf("DumpRIB: %v", err)
		}
		if i == 0 {
			first = buf.Bytes()
		} else if !bytes.Equal(buf.Bytes(), first) {
			t.Fatalf("dump %d differs from dump 0", i)
		}
	}
	r := mrt.NewReader(bytes.NewReader(first))
	if _, err := r.ReadRecord(); err != nil {
		t.Fatalf("peer index: %v", err)
	}
	var got []netip.Prefix
	for {
		rec, err := r.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("ReadRecord: %v", err)
		}
		got = append(got, rec.RIB.Prefix)
	}
	if !slices.Equal(got, want) {
		t.Errorf("dump order %v, want %v", got, want)
	}
}

// writerFunc adapts a function to io.Writer.
type writerFunc func([]byte) (int, error)

func (f writerFunc) Write(p []byte) (int, error) { return f(p) }

func TestDumpRIBDoesNotStallIngest(t *testing.T) {
	d := New(Config{LocalAS: 65000})
	defer d.Close()
	a := dialPeer(t, d, 65001)
	sendUpdate(t, a, []uint32{65001, 2}, "203.0.113.0/24")
	waitFor(t, func() bool { return d.Stats().Received >= 1 })

	// Nobody reads the pipe, so the dump blocks in its first write.
	pr, pw := io.Pipe()
	defer pr.Close()
	writing := make(chan struct{})
	var once sync.Once
	dumped := make(chan error, 1)
	go func() {
		dumped <- d.DumpRIB(writerFunc(func(p []byte) (int, error) {
			once.Do(func() { close(writing) })
			return pw.Write(p)
		}))
	}()
	<-writing

	b := dialPeer(t, d, 65002)
	sendUpdate(t, b, []uint32{65002, 2}, "198.51.100.0/24")
	deadline := time.Now().Add(2 * time.Second)
	for d.Stats().Received < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("received %d after 2 s: a blocked RIB dump stalls another VP's ingest", d.Stats().Received)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pr.Close()
	if err := <-dumped; !errors.Is(err, io.ErrClosedPipe) {
		t.Errorf("dump into a closed pipe: %v", err)
	}
}

func TestDaemonMultiplePeers(t *testing.T) {
	d := New(Config{LocalAS: 65000})
	defer d.Close()
	peers := []*bgp.Session{
		dialPeer(t, d, 65001),
		dialPeer(t, d, 65002),
		dialPeer(t, d, 65003),
	}
	for i, peer := range peers {
		stream := workload.Stream(workload.StreamConfig{
			PeerAS: uint32(65001 + i), Seed: int64(i), Prefixes: 20,
		}, 50)
		for _, tu := range stream {
			if err := peer.Send(tu.Update); err != nil {
				t.Fatalf("peer %d Send: %v", i, err)
			}
		}
	}
	waitFor(t, func() bool { return d.Stats().Received >= 150 })
	if n := len(d.vpList()); n != 3 {
		t.Errorf("daemon tracks %d VPs, want 3", n)
	}
}

func TestCapacityModel(t *testing.T) {
	m := CapacityModel{
		PerUpdateCost: time.Microsecond,
		PerWriteCost:  9 * time.Microsecond,
		DropFraction:  0,
	}
	// Capacity: 100k upd/s. At 28k/h ≈ 7.8 upd/s per peer → ≈12.8k peers.
	const peers = 12800
	if l := m.LossFraction(10000, workload.AvgUpdatesPerHour); l != 0 {
		t.Errorf("loss below capacity = %v", l)
	}
	if l := m.LossFraction(16000, workload.AvgUpdatesPerHour); l <= 0 {
		t.Errorf("loss above ≈12.8k peers = %v, want > 0", l)
	}
	if l := m.LossFraction(peers*4, workload.AvgUpdatesPerHour); l < 0.5 {
		t.Errorf("loss at 4x capacity = %v, want ≥0.5", l)
	}
	// Filtering (93% dropped) multiplies capacity ≈6-7x in the disk-bound
	// regime.
	withFilters := CapacityModel{
		PerUpdateCost: m.PerUpdateCost,
		PerWriteCost:  m.PerWriteCost,
		DropFraction:  0.93,
	}
	if l := withFilters.LossFraction(4*peers, workload.AvgUpdatesPerHour); l != 0 {
		t.Errorf("filtering should multiply capacity: loss %v at %d peers", l, 4*peers)
	}
}

func TestCalibrate(t *testing.T) {
	m := Calibrate(nil, 2000)
	if m.PerUpdateCost <= 0 || m.PerWriteCost <= 0 {
		t.Errorf("calibration produced non-positive costs: %+v", m)
	}
	if m.DropFraction != 0 {
		t.Errorf("nil filters must not drop: %v", m.DropFraction)
	}
	fs := filter.NewSet(filter.GranVPPrefix)
	for i := 0; i < 500; i++ {
		p := netip.PrefixFrom(netip.AddrFrom4([4]byte{32, byte(i >> 8), byte(i), 0}), 24)
		fs.AddDropVPPrefix("vp65001", p)
	}
	mf := Calibrate(fs, 2000)
	if mf.DropFraction <= 0.5 {
		t.Errorf("drop fraction %v, want most updates dropped", mf.DropFraction)
	}
}
