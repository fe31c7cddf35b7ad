package main

// One run of a daemon workload: set up, drive traffic for the measured
// window, drain, check the ledger, run the read phase, derive the metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/bench/gen"
)

const (
	// closedWindow is the saturate workload's window: the per-shard ingest
	// queue (4096 slots over 4 shards) holds this many, so even a window
	// that hashes entirely onto one shard cannot overflow it.
	closedWindow = 1024
	// closedPool is how many distinct messages the closed loop cycles.
	closedPool = 1 << 18
	// closedTagRate sizes the closed loop's per-tag arrays (tags/second);
	// a daemon faster than this ends the run early, which shows as goodput
	// pinned at this value.
	closedTagRate = 200_000
	// drainTimeout bounds the wait for in-flight updates after the last
	// send; an update not on /stream by then is counted missing.
	drainTimeout = 5 * time.Second
	// sloMS is the delivery-latency limit slo_miss_fraction is taken at.
	sloMS = 100.0
	// lateLimitMS is the generator's lateness p99 above which a run is
	// generator-bound.
	lateLimitMS = 5.0
	// setUps is how many times a run sets up; setup_s is their median.
	setUps = 5
	// slices is how many equal parts of the window each time-based metric
	// is taken over. The reported value is the median of the parts, so a
	// disturbance of a few seconds (a neighbour on the shared host, a burst
	// of write-back) moves one part and not the metric.
	slices = 5
	// traceEvery is the sampling interval of update spans.
	traceEvery = 64
)

// senders is the number of sender goroutines (= BGP sessions = VPs): one
// core is left for the stream reader.
func senders() int { return max(1, min(4, runtime.NumCPU()-1)) }

// setUpMedian sets up setUps times, closing all but the last, and records
// the median duration as setup_s.
func setUpMedian(res *result, setUp func() (*daemonEnv, error)) (e *daemonEnv, err error) {
	var took []float64
	for i := 0; i < setUps; i++ {
		if i > 0 {
			e.close()
		}
		start := time.Now()
		if e, err = setUp(); err != nil {
			return nil, err
		}
		took = append(took, time.Since(start).Seconds())
	}
	res.set("setup_s", median(took))
	return e, nil
}

type daemonEnv struct {
	d      *daemonProc
	tr     *traffic
	conns  []net.Conn
	mine   [][]int // per sender, the indices of its messages
	body   io.ReadCloser
	cancel context.CancelFunc
}

func (e *daemonEnv) close() {
	if e.cancel != nil {
		e.cancel()
		e.body.Close()
	}
	for _, c := range e.conns {
		c.Close()
	}
	e.d.stop()
}

// setUpDaemon does everything between "nothing is running" and "the first
// timed send may go": generate and pre-encode the input, build the filter
// set, spawn the daemon, open the sessions, subscribe to /stream.
func setUpDaemon(bin string, w workload, seed int64, seconds int) (*daemonEnv, error) {
	vps := senders()
	n, tags := closedPool, closedTagRate*seconds
	if w.rate > 0 {
		n = int(w.rate * float64(seconds))
		tags = n
	}
	st, err := gen.New(seed, vps, n)
	if err != nil {
		return nil, err
	}
	tr := newTraffic(st, tags)
	if w.rate > 0 {
		schedule := gen.Poisson
		if w.bursty {
			schedule = gen.Bursty
		}
		for k, at := range schedule(seed, n, w.rate) {
			tr.due[k], tr.tmpl[k] = int64(at), int32(k)
		}
	}
	e := &daemonEnv{tr: tr, mine: make([][]int, vps)}
	for k, m := range st.Msgs {
		e.mine[m.VP] = append(e.mine[m.VP], k)
	}
	if w.filtered {
		e.d, err = startDaemon(bin, st.Filters())
	} else {
		e.d, err = startDaemon(bin, nil)
	}
	if err != nil {
		return nil, err
	}
	for vp := 0; vp < vps; vp++ {
		conn, err := dialSession(e.d.bgpAddr, vp)
		if err != nil {
			e.close()
			return nil, err
		}
		e.conns = append(e.conns, conn)
	}
	// The handler subscribes before it sends the response header, so once
	// Do returns the subscription is live. 65536 asks for the largest
	// queue the hub grants.
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+e.d.adminAddr+"/stream?queue=65536", nil)
	resp, err := e.d.http.Do(req)
	if err == nil && resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		err = fmt.Errorf("GET /stream: %s", resp.Status)
	}
	if err != nil {
		cancel()
		e.close()
		return nil, err
	}
	e.cancel, e.body = cancel, resp.Body
	return e, nil
}

// statusz is the part of /statusz the ledger check reads; its quality
// section is the /qualityz report.
type statusz struct {
	Status struct {
		Stats struct{ Received, Filtered, Written, Lost int64 }
	}
	Quality struct {
		Ledger struct{ In, Unaccounted int64 }
	}
}

// selfCPU is the harness process's own CPU time so far, in seconds;
// threadCPU that of the calling thread (Linux's RUSAGE_THREAD).
func selfCPU() float64   { return cpuSeconds(syscall.RUSAGE_SELF) }
func threadCPU() float64 { return cpuSeconds(1) }

func cpuSeconds(who int) float64 {
	var ru syscall.Rusage
	syscall.Getrusage(who, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// cpuMark is the daemon's CPU time so far and the updates sent so far.
type cpuMark struct {
	cpuS float64
	sent int64
}

// cpuPerUpdate is the median over the slices of the CPU µs spent per
// update sent, given the marks at the window's start and at each slice's end.
func cpuPerUpdate(marks []cpuMark) float64 {
	var per []float64
	for k := 1; k < len(marks); k++ {
		per = append(per, ratio((marks[k].cpuS-marks[k-1].cpuS)*1e6, float64(marks[k].sent-marks[k-1].sent)))
	}
	return median(per)
}

// driven is what the traffic phase of a daemon run leaves behind.
type driven struct {
	sent, retained int64
	elapsed        time.Duration // first send → drained
	before, after  procUsage     // the daemon's /proc entry
	marks          []cpuMark     // window start, then each slice's end
	genCPU         float64       // the harness's own CPU seconds
	lateness       []float64     // open loop, ascending, ms
	queueMax       float64       // traced runs: deepest ingest queue scraped
	status         statusz
}

// drive runs the measured window: senders and stream reader until the
// schedule (or, closed loop, the time) is exhausted, then the drain, then
// the wait for the daemon to finish archiving.
func (e *daemonEnv) drive(w workload, dur time.Duration, traced bool) (*driven, error) {
	tr, d, pid := e.tr, e.d, e.d.cmd.Process.Pid
	m := &driven{}
	var err error
	if m.before, err = usage(pid); err != nil {
		return nil, err
	}
	self0 := selfCPU()

	// Flush what earlier runs and builds left dirty, so that the seal
	// fsyncs inside the window pay for their own segment only.
	syscall.Sync()
	tr.t0 = time.Now()
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		tr.readStream(e.body)
	}()
	scraperDone := make(chan struct{})
	go func() {
		defer close(scraperDone)
		if traced {
			m.queueMax = scrapeLoop(d, tr, dur)
		}
	}()
	m.marks = make([]cpuMark, slices+1)
	m.marks[0].cpuS = m.before.userS + m.before.sysS
	marksDone := make(chan error, 1)
	go func() {
		for k := 1; k <= slices; k++ {
			end := dur * time.Duration(k) / slices
			time.Sleep(end - time.Since(tr.t0))
			cpuS, err := cpuTime(pid)
			if err != nil {
				marksDone <- err
				return
			}
			m.marks[k] = cpuMark{cpuS, tr.sentBy(end, w.rate > 0)}
		}
		marksDone <- nil
	}()
	if w.rate == 0 {
		timer := time.AfterFunc(dur, func() { tr.stop.Store(true); tr.wake() })
		defer timer.Stop()
	}
	var wg sync.WaitGroup
	errs := make([]error, len(e.conns))
	late := make([][]float64, len(e.conns))
	for i, conn := range e.conns {
		wg.Add(1)
		go func(i int, conn net.Conn) {
			defer wg.Done()
			if w.rate > 0 {
				late[i], errs[i] = tr.sendOpen(conn, e.mine[i])
			} else {
				errs[i] = tr.sendClosed(conn, e.mine[i], closedWindow)
			}
		}(i, conn)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sender: %w", err)
		}
	}
	if err := <-marksDone; err != nil {
		return nil, err
	}
	for _, l := range late {
		m.lateness = append(m.lateness, l...)
	}
	sort.Float64s(m.lateness)
	m.sent = int64(len(tr.due))
	if w.rate == 0 {
		m.sent = tr.sent
	}

	// Drain: every retained message must reach /stream.
	for k := int64(0); k < m.sent; k++ {
		if msg := &tr.st.Msgs[tr.tmpl[k]]; !w.filtered || tr.st.Kept(msg.VP, msg.Prefix) {
			m.retained++
		}
	}
	deadline := time.Now().Add(drainTimeout)
	wakeAtDeadline := time.AfterFunc(drainTimeout, tr.wake)
	tr.mu.Lock()
	for tr.acked.Load() < m.retained && time.Now().Before(deadline) {
		tr.cond.Wait()
	}
	tr.mu.Unlock()
	wakeAtDeadline.Stop()
	m.elapsed = time.Since(tr.t0)
	tr.stop.Store(true)
	<-scraperDone

	// Quiescence: the stream tee runs before the archive stage, so the
	// last batch may still be on its way to the WAL. Polled on /metrics,
	// because every /statusz or /qualityz request runs a full data-quality
	// audit (seconds of daemon CPU after a long run).
	for quiesce := time.Now().Add(drainTimeout); ; time.Sleep(2 * time.Millisecond) {
		s, err := d.scrape()
		if err != nil {
			return nil, err
		}
		in, done := s["daemon_pipeline_in"], s["daemon_pipeline_out"]+s["daemon_pipeline_dropped"]
		for _, st := range pipelineStages {
			done += s["daemon_pipeline_stage_"+st+"_in"] - s["daemon_pipeline_stage_"+st+"_out"]
		}
		if (in == float64(m.sent) && done == in) || time.Now().After(quiesce) {
			break
		}
	}
	if m.after, err = usage(pid); err != nil {
		return nil, err
	}
	m.genCPU = selfCPU() - self0
	// Nothing more will be published: end the subscription, so that the
	// reader's ledger has no writer left when it is checked.
	e.cancel()
	<-readerDone
	// One request serves both ledgers: /statusz embeds the /qualityz report.
	body, err := d.get("/statusz")
	if err == nil {
		err = json.Unmarshal(body, &m.status)
	}
	if err != nil {
		return nil, fmt.Errorf("/statusz: %w", err)
	}
	return m, nil
}

// sample is one delivered announcement: when it was due and when the
// subscriber saw it, in ns since the run's first send.
type sample struct{ due, seen int64 }

// ledger checks the daemon's books and the stream reader's against what
// was sent. It returns the delivered announcements and how many retained
// updates never arrived.
func (e *daemonEnv) ledger(res *result, w workload, m *driven, read readResult) (delivered []sample, missing int64) {
	tr, stats, books := e.tr, m.status.Status.Stats, m.status.Quality.Ledger
	res.check(stats.Received == m.sent, "daemon Received %d, sent %d", stats.Received, m.sent)
	res.check(stats.Written+stats.Filtered+stats.Lost == stats.Received,
		"Written %d + Filtered %d + Lost %d != Received %d", stats.Written, stats.Filtered, stats.Lost, stats.Received)
	res.check(books.Unaccounted == 0 && books.In == m.sent, "/qualityz ledger: in %d, unaccounted %d", books.In, books.Unaccounted)
	res.check(!tr.evicted, "the hub evicted the stream subscriber")
	var unexpected, wrongSlot int64
	wdWant := make([]int32, len(tr.wdSeen))
	for k := int64(0); k < m.sent; k++ {
		msg := &tr.st.Msgs[tr.tmpl[k]]
		kept := !w.filtered || tr.st.Kept(msg.VP, msg.Prefix)
		switch {
		case msg.Withdraw:
			if kept {
				wdWant[msg.VP*gen.Prefixes+msg.Prefix]++
			}
		case kept && tr.seen[k] == 0:
			missing++
		case !kept && tr.seen[k] != 0:
			unexpected++
		case kept:
			if int(tr.seenPrefix[k]) != msg.Prefix || int(tr.seenVP[k]) != msg.VP {
				wrongSlot++
			}
			delivered = append(delivered, sample{tr.due[k], tr.seen[k]})
		}
	}
	for slot, want := range wdWant {
		if d := int64(want - tr.wdSeen[slot]); d > 0 {
			missing += d
		} else {
			unexpected -= d
		}
	}
	res.check(missing == 0, "%d retained updates never reached /stream", missing)
	res.check(unexpected == 0, "%d updates on /stream that the filters should have dropped", unexpected)
	res.check(wrongSlot == 0, "%d tags came back on another VP or prefix", wrongSlot)
	res.check(tr.dups == 0 && tr.unknown == 0, "%d duplicate and %d unknown tags on /stream", tr.dups, tr.unknown)
	res.check(read.wrong == 0, "%d read answers differ from the ledger; first: %s", read.wrong, read.firstWrong)
	res.generatorBound = quantile(m.lateness, 0.99) > lateLimitMS
	res.check(!res.generatorBound, "generator-bound run: scheduling lateness p99 %.2f ms exceeds %.0f ms", quantile(m.lateness, 0.99), lateLimitMS)
	res.attempted = m.sent
	res.failed = stats.Lost + missing + unexpected + wrongSlot + tr.dups + tr.unknown + int64(read.wrong)
	return delivered, missing
}

// deliveryMetrics records what the delivered samples say: latency (the
// median bounded; mean and tail percentiles for information), goodput
// inside the window, its decay, and the tail notes. The bounded ones are
// medians over the window's slices: an announcement counts to the slice it
// was due in, a delivery to the slice it arrived in.
func deliveryMetrics(res *result, delivered []sample, undelivered int64, dur time.Duration) {
	ms := make([]float64, len(delivered))
	var bySlice [slices][]float64
	var arrived [slices]float64
	var slow, first, last float64
	slice := func(at int64) int { return int(min(at*slices/int64(dur), slices-1)) }
	for i, s := range delivered {
		ms[i] = float64(s.seen-s.due) / 1e6
		bySlice[slice(s.due)] = append(bySlice[slice(s.due)], ms[i])
		if ms[i] > sloMS {
			slow++
		}
		switch third := int64(dur) / 3; {
		case s.seen <= third:
			first++
		case s.seen > int64(dur)-third && s.seen <= int64(dur):
			last++
		}
		if s.seen <= int64(dur) {
			arrived[slice(s.seen)]++
		}
	}
	var p50s, p99s, means, goodputs []float64
	for k := range bySlice {
		sort.Float64s(bySlice[k])
		p50s = append(p50s, quantile(bySlice[k], 0.50))
		p99s = append(p99s, quantile(bySlice[k], 0.99))
		means = append(means, mean(bySlice[k]))
		goodputs = append(goodputs, arrived[k]*slices/dur.Seconds())
	}
	sort.Float64s(ms)
	total := float64(len(ms)) + float64(undelivered)
	res.set("stream_latency_p50_ms", median(p50s))
	res.set("stream.latency_mean_ms", mean(ms))
	res.set("stream.latency_p95_ms", quantile(ms, 0.95))
	res.set("stream.latency_p99_ms", quantile(ms, 0.99))
	res.set("stream.slo_miss_fraction", ratio(slow+float64(undelivered), total))
	res.set("goodput_upd_per_s", median(goodputs))
	// A WAL-size-dependent cost shows as a last third slower than the first.
	res.set("goodput.first_third_upd_per_s", first/(dur.Seconds()/3))
	res.set("goodput.last_third_upd_per_s", last/(dur.Seconds()/3))
	res.set("goodput.decay_ratio", ratio(last, first))
	res.note("delivery latency, whole run: mean %.3f ms, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, %s", mean(ms), quantile(ms, 0.5), quantile(ms, 0.95), quantile(ms, 0.99), tail(ms))
	res.note("by slice: p50 %.3f ms, p99 %.3f ms, mean %.3f ms, goodput %.0f /s", p50s, p99s, means, goodputs)
	res.note("slo_miss_fraction (over %.0f ms or undelivered): %.6f of %.0f", sloMS, ratio(slow+float64(undelivered), total), total)
}

func runDaemon(bin string, w workload, seed int64, seconds int, tc *tracer) (*result, error) {
	res := newResult()
	e, err := setUpMedian(res, func() (*daemonEnv, error) { return setUpDaemon(bin, w, seed, seconds) })
	if err != nil {
		return nil, err
	}
	defer e.close()
	tr, d := e.tr, e.d
	dur := time.Duration(seconds) * time.Second

	var scrape0 map[string]float64
	if tc != nil {
		if scrape0, err = d.scrape(); err != nil {
			return nil, err
		}
	}
	m, err := e.drive(w, dur, tc != nil)
	if err != nil {
		return nil, err
	}
	// The read phase costs seconds on a large archive and its latencies are
	// per-layer rows, so only the traced run has one.
	var read readResult
	if tc != nil {
		read = readPhase(httpReader{"http://" + d.adminAddr, d.http}, tr.st, tr.watched, tr.tsMin, tr.tsMax, seed, tr.t0, tc)
	}
	delivered, missing := e.ledger(res, w, m, read)

	cpuS := (m.after.userS + m.after.sysS) - (m.before.userS + m.before.sysS)
	deliveryMetrics(res, delivered, missing, dur)
	res.set("daemon_cpu_us_per_upd", cpuPerUpdate(m.marks))
	res.note("sent %d updates in %.2fs (%d retained, %d announcements on /stream); daemon CPU %.2fs, %.2f us/update over the whole run", m.sent, m.elapsed.Seconds(), m.retained, len(delivered), cpuS, cpuS*1e6/float64(m.sent))
	res.set("gen.sched_lateness_p99_ms", quantile(m.lateness, 0.99))
	res.set("gen.write_block_ms_total", float64(tr.blockedNS.Load())/1e6)
	res.set("gen.cpu_share", m.genCPU/(m.elapsed.Seconds()*float64(runtime.NumCPU())))
	res.set("daemon.cpu_user_s", m.after.userS-m.before.userS)
	res.set("daemon.cpu_sys_s", m.after.sysS-m.before.sysS)
	res.set("daemon.rss_peak_mb", m.after.rssPeakMB)
	res.set("daemon.ctx_switches", m.after.ctxSwitches-m.before.ctxSwitches)
	res.set("daemon.lost", float64(m.status.Status.Stats.Lost))
	if tc == nil {
		return res, nil
	}

	// The rest is the traced run's: scrape rows, spans, layer walks.
	scrape1, err := d.scrape()
	if err != nil {
		return nil, err
	}
	res.set("index.query_latency_p50_ms", median(read.queryMS))
	res.set("index.rib_latency_p50_ms", median(read.ribMS))
	res.note("read phase, per round of three prefixes: query p50 %.3f ms (n=%d), rib p50 %.3f ms (n=%d)", median(read.queryMS), len(read.queryMS), median(read.ribMS), len(read.ribMS))
	res.set("pipeline.queue_depth_max", m.queueMax)
	res.set("archive.segments_sealed", scrape1["index_sealed_segments"])
	scrapeMetrics(res, scrape0, scrape1)

	// One root span per sampled announcement, covered by its two children.
	var daemonNS []float64
	for k := int64(0); k < m.sent; k += traceEvery {
		if tr.seen[k] == 0 {
			continue
		}
		wrote := min(max(tr.wrote[k], tr.due[k]), tr.seen[k])
		root := tc.root("update", tr.due[k], tr.seen[k])
		tc.child(root, "gen.write", tr.due[k], wrote)
		tc.child(root, "daemon", wrote, tr.seen[k])
		daemonNS = append(daemonNS, float64(tr.seen[k]-wrote))
	}
	// What the daemon's own instruments attribute to one update, against
	// what the harness saw it take.
	attributedUS := res.values["pipeline.queue_wait_us_mean"] + res.values["stream.delivery_us_mean"]
	for _, st := range pipelineStages {
		name := "daemon_pipeline_stage_" + st + "_latency_ns_sum"
		attributedUS += ratio(scrape1[name]-scrape0[name], scrape1["daemon_pipeline_taken"]-scrape0["daemon_pipeline_taken"]) / 1e3
	}
	res.set("trace.unattributed_share", 1-ratio(attributedUS*1e3, mean(daemonNS)))

	// Tracing overhead: the scraper works only in odd seconds of the run,
	// so the even seconds are the untraced control inside the same run.
	var lat [2][]float64 // latencies by parity of the due second: [0] even, [1] odd
	var seen [2]float64  // deliveries by parity of the arrival second
	for _, s := range delivered {
		lat[s.due/1e9%2] = append(lat[s.due/1e9%2], float64(s.seen-s.due))
		if sec := s.seen / 1e9; sec < int64(seconds)/2*2 {
			seen[sec%2]++
		}
	}
	if w.rate > 0 {
		res.set("trace.overhead_pct", 100*(ratio(median(lat[1]), median(lat[0]))-1))
	} else {
		res.set("trace.overhead_pct", 100*(ratio(seen[0], seen[1])-1))
	}
	if err := walk(res, tc, tr.st, filepath.Join(d.dir, "walk"), seed, tr.t0); err != nil {
		return nil, err
	}
	return res, nil
}

// scrapeLoop scrapes /metrics twice in every odd second of the run (1 Hz
// on average) and returns the deepest ingest queue it saw.
func scrapeLoop(d *daemonProc, tr *traffic, dur time.Duration) (queueMax float64) {
	for at := time.Second; at < dur && !tr.stop.Load(); at += 500 * time.Millisecond {
		if (at/time.Second)%2 == 0 {
			continue
		}
		if wait := at - time.Since(tr.t0); wait > 0 {
			time.Sleep(wait)
		}
		if m, err := d.scrape(); err == nil {
			queueMax = max(queueMax, m["daemon_pipeline_queue_depth"])
		}
	}
	return queueMax
}

var pipelineStages = []string{"vitals", "filter", "live", "archive", "counter"}

// scrapeMetrics derives the scrape rows from two /metrics snapshots.
func scrapeMetrics(res *result, s0, s1 map[string]float64) {
	delta := func(name string) float64 { return s1[name] - s0[name] }
	perObs := func(hist string) float64 { return ratio(delta(hist+"_sum"), delta(hist+"_count")) }
	res.set("pipeline.queue_wait_us_mean", perObs("daemon_pipeline_queue_wait_ns")/1e3)
	res.set("pipeline.batch_size_mean", perObs("daemon_pipeline_batch_size"))
	res.set("pipeline.dropped", delta("daemon_pipeline_dropped"))
	res.set("pipeline.e2e_latency_us_mean", perObs("daemon_pipeline_e2e_latency_ns")/1e3)
	for _, st := range pipelineStages {
		p := "daemon_pipeline_stage_" + st
		res.set("pipeline.stage."+st+"_ns_per_upd", ratio(delta(p+"_latency_ns_sum"), delta(p+"_in")))
	}
	filterIn := delta("daemon_pipeline_stage_filter_in")
	res.set("filter.drop_ratio", ratio(filterIn-delta("daemon_pipeline_stage_filter_out"), filterIn))
	res.set("stream.delivery_us_mean", perObs("stream_delivery_ns")/1e3)
	res.set("stream.evicted_slow", delta("stream_evicted_slow"))
	res.set("stream.dropped_rate_limited", delta("stream_dropped_rate_limited"))
	res.set("stream.publish_overflow", delta("stream_publish_overflow"))
	scanned := delta("index_segments_scanned")
	res.set("index.query_scanned_ratio", ratio(scanned, scanned+delta("index_segments_skipped")))
}
