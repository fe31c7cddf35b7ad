package main

// Layer walks: the harness calls each layer's public functions directly,
// single-threaded, on the run's own generated updates, with a span around
// every call batch. This is where the per-layer "walk" metrics come from,
// and it doubles as the single-threaded baseline of the path.

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/bench/gen"
	"repro/internal/archive"
	"repro/internal/bgp"
	"repro/internal/daemon"
	"repro/internal/index"
	"repro/internal/metrics"
	"repro/internal/mrt"
	"repro/internal/stream"
	"repro/internal/update"
)

const (
	// walkUpdates caps how many of the run's updates a walk replays.
	walkUpdates = 200_000
	// walkBatch is the number of calls under one span.
	walkBatch = 4096
	// walkArchive is how many records the walk journals (the run's
	// messages, cycled): 48 segments, enough to time the index with 10
	// segments behind it whatever the run's length.
	walkArchive = 48 * archiveRate
	// archiveRate spreads an in-process archive's timestamps: this many
	// records per second, i.e. one default-size segment per second.
	archiveRate = archive.DefaultJournalRotation
	// fleetSubs is the paced-fleet subscriber count the hub is walked with,
	// spread over gen.Groups distinct within= filters.
	fleetSubs = 2000
)

var collectorIP = netip.AddrFrom4([4]byte{192, 0, 2, 1})

// asUpdate is the canonical update the daemon would build from m.
func asUpdate(m *gen.Msg, tag uint32, ts time.Time) *update.Update {
	u := &update.Update{VP: gen.VPName(m.VP), Time: ts, Prefix: gen.Prefix(m.Prefix), Withdraw: m.Withdraw}
	if !m.Withdraw {
		u.Path, u.Comms = m.Path, []uint32{tag}
	}
	return u
}

// asRecord is the BGP4MP record the daemon's archive stage would write.
func asRecord(m *gen.Msg, tag uint32, ts time.Time) *mrt.Record {
	msg := &bgp.Update{}
	if m.Withdraw {
		msg.Withdrawn = []netip.Prefix{gen.Prefix(m.Prefix)}
	} else {
		msg.Origin, msg.ASPath, msg.NextHop = bgp.OriginIGP, m.Path, collectorIP
		msg.Communities = []bgp.Community{bgp.Community(tag)}
		msg.NLRI = []netip.Prefix{gen.Prefix(m.Prefix)}
	}
	return &mrt.Record{
		Header: mrt.Header{Timestamp: ts, Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeBGP4MPMessageAS4},
		BGP4MP: &mrt.BGP4MPMessage{PeerAS: uint32(gen.FirstAS + m.VP), LocalAS: 65000, PeerIP: collectorIP, LocalIP: collectorIP, Message: msg},
	}
}

// builtArchive is an archive the harness wrote in-process, the way the
// daemon does (journal, index fed on every seal), with the ledger and
// timings of writing it.
type builtArchive struct {
	svc          *index.Service
	reg          *metrics.Registry
	sealed       []string
	watched      []line // the query prefixes' records, in write order
	tsMin, tsMax int64

	appendNS float64   // mean non-rotating Journal.Append
	sealMS   []float64 // rotating Journal.Append calls
	addSegMS []float64 // Index.AddSegment, by number of segments already indexed
	bytes    int64
}

// buildArchive journals n records (the stream's messages, cycled) under
// dir. Record k carries tag k and the timestamp of its second.
func buildArchive(dir string, st *gen.Stream, n int, tc *tracer, parent int, t0 time.Time) (*builtArchive, error) {
	a := &builtArchive{reg: metrics.NewRegistry(), tsMin: 1_700_000_000}
	j, err := archive.OpenJournal(dir, 0)
	if err != nil {
		return nil, err
	}
	if a.svc, err = index.NewService(dir, a.reg); err != nil {
		return nil, err
	}
	j.OnSeal = func(path string) { a.sealed = append(a.sealed, path) }
	watch := watchSet(st)
	indexSealed := func() error {
		for len(a.addSegMS) < len(a.sealed) {
			start := time.Now()
			if err := a.svc.Index.AddSegment(a.sealed[len(a.addSegMS)]); err != nil {
				return err
			}
			a.addSegMS = append(a.addSegMS, float64(time.Since(start))/1e6)
		}
		return nil
	}
	var appendTotal time.Duration
	batchStart := time.Since(t0)
	for k := 0; k < n; k++ {
		m := &st.Msgs[k%len(st.Msgs)]
		ts := a.tsMin + int64(k/archiveRate)
		a.tsMax = ts
		rec := asRecord(m, uint32(k), time.Unix(ts, 0))
		seals := len(a.sealed)
		start := time.Now()
		if err := j.Append(rec); err != nil {
			return nil, err
		}
		if took := time.Since(start); len(a.sealed) > seals {
			a.sealMS = append(a.sealMS, float64(took)/1e6)
		} else {
			appendTotal += took
		}
		if watch[m.Prefix] {
			a.watched = append(a.watched, line{vp: m.VP, prefix: m.Prefix, ts: ts, withdraw: m.Withdraw, tag: uint32(k)})
		}
		if (k+1)%walkBatch == 0 || k == n-1 {
			now := time.Since(t0)
			tc.child(parent, "archive.Journal.Append", int64(batchStart), int64(now))
			if err := indexSealed(); err != nil {
				return nil, err
			}
			tc.child(parent, "index.AddSegment", int64(now), int64(time.Since(t0)))
			batchStart = time.Since(t0)
		}
	}
	if err := j.Close(); err != nil {
		return nil, err
	}
	if err := indexSealed(); err != nil {
		return nil, err
	}
	a.appendNS = float64(appendTotal) / float64(n-len(a.sealMS))
	for _, path := range a.sealed {
		if fi, err := os.Stat(path); err == nil {
			a.bytes += fi.Size()
		}
	}
	return a, nil
}

// mallocs is the process's allocation count so far.
func mallocs() float64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Mallocs)
}

// walk replays the run's first updates through every layer and records
// the walk metrics into res. dir is scratch space for the archive.
func walk(res *result, tc *tracer, st *gen.Stream, dir string, seed int64, t0 time.Time) error {
	n := min(walkUpdates, len(st.Msgs))
	msgs := st.Msgs[:n]
	root := tc.root("walk.batch", int64(time.Since(t0)), int64(time.Since(t0)))
	// batched runs fn over [0,n) in walkBatch pieces, one span each, and
	// returns the total time.
	batched := func(name string, fn func(lo, hi int) error) (time.Duration, error) {
		var total time.Duration
		for lo := 0; lo < n; lo += walkBatch {
			hi := min(lo+walkBatch, n)
			start := time.Since(t0)
			if err := fn(lo, hi); err != nil {
				return 0, fmt.Errorf("walk %s: %w", name, err)
			}
			end := time.Since(t0)
			tc.child(root, name, int64(start), int64(end))
			total += end - start
		}
		return total, nil
	}
	perCall := func(d time.Duration) float64 { return float64(d) / float64(n) }

	// bgp: decode the wire bytes the senders sent.
	var wire []byte
	for i := range msgs {
		wire = append(wire, msgs[i].Wire...)
	}
	rd := bytes.NewReader(wire)
	var u bgp.Update
	before := mallocs()
	took, err := batched("bgp.ReadMessageInto", func(lo, hi int) error {
		for ; lo < hi; lo++ {
			if _, err := bgp.ReadMessageInto(rd, &u); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("bgp.decode_allocs_per_upd", (mallocs()-before)/float64(n))
	res.set("bgp.decode_ns_per_upd", perCall(took))
	res.set("bgp.wire_bytes_per_upd", float64(len(wire))/float64(n))

	// daemon: an in-process daemon with no sink and no hub, fed over a
	// pipe; the time runs until its pipeline has drained.
	d := daemon.New(daemon.Config{LocalAS: 65000, RouterID: collectorIP})
	ours, theirs := net.Pipe()
	served := make(chan error, 1)
	go func() { served <- d.ServeConn(context.Background(), theirs) }()
	if err := handshake(ours, 0); err != nil {
		return err
	}
	start := time.Since(t0)
	for off := 0; off < len(wire); off += writeBatch {
		if _, err := ours.Write(wire[off:min(off+writeBatch, len(wire))]); err != nil {
			return fmt.Errorf("walk daemon: %w", err)
		}
	}
	ours.Close()
	<-served
	if err := d.Close(); err != nil {
		return fmt.Errorf("walk daemon: %w", err)
	}
	end := time.Since(t0)
	tc.child(root, "daemon.ServeConn", int64(start), int64(end))
	if got := d.Stats().Received; got != uint64(n) {
		return fmt.Errorf("walk daemon: received %d of %d", got, n)
	}
	res.set("daemon.ingest_ns_per_upd", perCall(end-start))

	// filter: the burst workload's drop set on every update.
	us := make([]*update.Update, n)
	now := time.Now()
	for i := range msgs {
		us[i] = asUpdate(&msgs[i], uint32(i), now)
	}
	fs := st.Filters()
	kept := 0 // keeps the calls from being optimised away
	took, _ = batched("filter.Set.Keep", func(lo, hi int) error {
		for ; lo < hi; lo++ {
			if fs.Keep(us[lo]) {
				kept++
			}
		}
		return nil
	})
	_ = kept
	res.set("filter.keep_ns_per_upd", perCall(took))

	// mrt: encode the archive records.
	recs := make([]*mrt.Record, n)
	for i := range msgs {
		recs[i] = asRecord(&msgs[i], uint32(i), now)
	}
	var buf []byte
	took, err = batched("mrt.AppendRecord", func(lo, hi int) error {
		for ; lo < hi; lo++ {
			var err error
			if buf, err = mrt.AppendRecord(buf[:0], recs[lo]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("mrt.encode_ns_per_rec", perCall(took))

	// archive + index: journal the records, index each sealed segment.
	a, err := buildArchive(dir, st, walkArchive, tc, root, t0)
	if err != nil {
		return fmt.Errorf("walk archive: %w", err)
	}
	res.set("archive.append_ns_per_rec", a.appendNS)
	res.set("archive.seal_ms_mean", mean(a.sealMS))
	res.set("archive.bytes_per_rec", float64(a.bytes)/walkArchive)
	res.set("index.add_segment_ms_at_10", a.addSegMS[10])

	// index reads, checked like the daemon's.
	read := readPhase(directReader{a.svc}, st, a.watched, a.tsMin, a.tsMax, seed, t0, tc)
	if read.wrong > 0 {
		return fmt.Errorf("walk index: %d read answers differ from the ledger; first: %s", read.wrong, read.firstWrong)
	}
	var readNS float64
	for _, ms := range append(append([]float64(nil), read.queryMS...), read.ribMS...) {
		readNS += ms * 1e6
	}
	scanned := float64(a.reg.Snapshot().Counters["index.segments_scanned"])
	res.set("index.query_ns_per_scanned_rec", ratio(readNS, scanned*archive.DefaultJournalRotation))
	res.set("index.rib_at_ms", median(read.ribMS))

	// index at 200 segments: pad the directory with hard links to sealed
	// segments, so that only the index file grows, not the walk's time.
	for seq := len(a.sealed); seq <= 200; seq++ {
		path := filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
		if err := os.Link(a.sealed[seq%len(a.sealed)], path); err != nil {
			return fmt.Errorf("walk index: %w", err)
		}
		start := time.Since(t0)
		if err := a.svc.Index.AddSegment(path); err != nil {
			return fmt.Errorf("walk index: %w", err)
		}
		if seq == 200 {
			end := time.Since(t0)
			tc.child(root, "index.AddSegment@200", int64(start), int64(end))
			res.set("index.add_segment_ms_at_200", float64(end-start)/1e6)
		}
	}
	if fi, err := os.Stat(filepath.Join(dir, index.FileName)); err == nil {
		res.set("index.file_bytes_per_segment", float64(fi.Size())/201)
	}

	// stream: publish into a hub with one subscriber, then with 2000.
	for _, subs := range []int{1, fleetSubs} {
		ns, allocs := walkPublish(us[:min(n, 20000)], subs, tc, root, t0)
		res.set(fmt.Sprintf("stream.publish_ns_per_event_%dsub", subs), ns)
		if subs == 1 {
			res.set("stream.publish_allocs_per_event", allocs)
		}
	}
	tc.spans[root-1].End = int64(time.Since(t0))
	return nil
}

// walkPublish publishes us into a fresh hub with subs subscribers (spread
// over the filter groups) as fast as the subscribers
// drain, and returns wall time and allocations per event.
func walkPublish(us []*update.Update, subs int, tc *tracer, parent int, t0 time.Time) (nsPerEvent, allocsPerEvent float64) {
	reg := metrics.NewRegistry()
	hub := stream.NewHub(stream.Config{Registry: reg})
	defer hub.Close()
	all := make([]*stream.Subscriber, subs)
	for i := range all {
		all[i] = hub.Subscribe(stream.SubOptions{Filter: groupFilter(i, subs)})
	}
	delivered := reg.Counter("stream.delivered")
	sweep := func() {
		for _, s := range all {
			for len(s.C()) > 0 {
				<-s.C()
			}
		}
	}
	// Each event reaches subs/groups subscribers, or the only one.
	perEvent := uint64(max(1, subs/gen.Groups))
	before := mallocs()
	start := time.Since(t0)
	for lo := 0; lo < len(us); lo += 32 {
		hi := min(lo+32, len(us))
		for _, u := range us[lo:hi] {
			hub.Publish(u)
		}
		// 32 events fit every queue (64 by default); drain before the next.
		for delivered.Load() < uint64(hi)*perEvent {
			runtime.Gosched()
		}
		sweep()
	}
	end := time.Since(t0)
	tc.child(parent, fmt.Sprintf("stream.Hub.Publish×%dsub", subs), int64(start), int64(end))
	return float64(end-start) / float64(len(us)), (mallocs() - before) / float64(len(us))
}

// groupFilter is subscriber i's filter: with fewer subscribers than
// groups, none (the firehose); otherwise its group's block.
func groupFilter(i, subs int) *stream.Filter {
	if subs < gen.Groups {
		return nil
	}
	f, err := stream.ParseFilter("within=" + gen.Within(i%gen.Groups).String())
	if err != nil {
		panic(err) // a bug in gen.Within, not an input error
	}
	return f
}
