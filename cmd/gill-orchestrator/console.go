package main

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"net/netip"
	"os"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/orchestrator"
	"repro/internal/quality"
	"repro/internal/update"
)

// console is the operator's command loop over one orchestrator and, with
// -fabric-listen, the fleet coordinator it hosts.
type console struct {
	o     *orchestrator.Orchestrator
	rec   *orchestrator.Recomputer
	qp    *quality.Plane
	coord *fabric.Coordinator // nil without -fabric-listen
	// quit cancels the ctx the process serves on (the `quit` command).
	quit context.CancelFunc

	mu                        sync.Mutex
	lastTrainIn, lastTrainOut string
}

// run executes commands read from r, replying on w, until r is exhausted
// or ctx ends. EOF closes only the console: the ctx — and with it the
// coordinator and the admin plane — stays up.
func (c *console) run(ctx context.Context, r io.Reader, w io.Writer) error {
	sc := bufio.NewScanner(r)
	for ctx.Err() == nil && sc.Scan() {
		c.command(w, strings.Fields(sc.Text()))
	}
	return sc.Err()
}

// lastTraining returns the stream and output file of the last `train`.
func (c *console) lastTraining() (in, out string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastTrainIn, c.lastTrainOut
}

func (c *console) command(w io.Writer, fields []string) {
	if len(fields) == 0 {
		return
	}
	switch fields[0] {
	case "submit":
		if len(fields) != 4 {
			fmt.Fprintln(w, "usage: submit <asn> <email> <router-ip>")
			return
		}
		asn, err1 := strconv.ParseUint(fields[1], 10, 32)
		ip, err2 := netip.ParseAddr(fields[3])
		if err1 != nil || err2 != nil {
			fmt.Fprintln(w, "bad asn or ip")
			return
		}
		err := c.o.SubmitPeering(orchestrator.PeeringRequest{
			ASN: uint32(asn), Email: fields[2], RouterIP: ip,
		})
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return
		}
		fmt.Fprintln(w, "request filed; confirm by email to activate")
	case "confirm":
		if len(fields) != 3 {
			fmt.Fprintln(w, "usage: confirm <asn> <email>")
			return
		}
		asn, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			fmt.Fprintln(w, "bad asn")
			return
		}
		p, err := c.o.ConfirmEmail(uint32(asn), fields[2])
		if err != nil {
			fmt.Fprintln(w, "error:", err)
			return
		}
		if c.coord != nil {
			c.coord.AddVP(fmt.Sprintf("vp%d", p.ASN))
		}
		fmt.Fprintf(w, "AS%d activated (router %s)\n", p.ASN, p.RouterIP)
	case "peers":
		for _, p := range c.o.Peers() {
			fmt.Fprintf(w, "AS%-8d %s since %s\n", p.ASN, p.RouterIP, p.AddedAt.Format("2006-01-02 15:04"))
		}
	case "status":
		c1, c2 := c.o.Due()
		fmt.Fprintf(w, "component #1 (redundant updates, every %v): due=%v\n", orchestrator.Component1Period, c1)
		fmt.Fprintf(w, "component #2 (anchor VPs, every %v): due=%v\n", orchestrator.Component2Period, c2)
	case "train":
		if len(fields) != 3 {
			fmt.Fprintln(w, "usage: train <stream.mrt[.gz]> <out.filters>")
			return
		}
		if err := trainFromMRT(w, c.rec, c.qp, fields[1], fields[2]); err != nil {
			fmt.Fprintln(w, "train:", err)
			return
		}
		c.mu.Lock()
		c.lastTrainIn, c.lastTrainOut = fields[1], fields[2]
		c.mu.Unlock()
	case "filters":
		if len(fields) != 2 {
			fmt.Fprintln(w, "usage: filters <file>")
			return
		}
		if err := c.loadFilters(w, fields[1]); err != nil {
			fmt.Fprintln(w, "filters:", err)
		}
	case "audit":
		if len(fields) != 2 {
			fmt.Fprintln(w, "usage: audit <stream.mrt[.gz]>")
			return
		}
		if err := auditFromMRT(w, c.o, c.qp, fields[1]); err != nil {
			fmt.Fprintln(w, "audit:", err)
		}
	case "quit", "exit":
		c.quit()
	default:
		fmt.Fprintln(w, "unknown command")
	}
}

// loadFilters installs a filter file through the same path a training
// does: the orchestrator records it (so `audit` sees what the fleet runs)
// and its traced fan-out pushes it to every collector.
func (c *console) loadFilters(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	fs, err := filter.Unmarshal(f)
	if err != nil {
		return err
	}
	c.o.LoadFilters(fs, 1)
	fmt.Fprintf(w, "installed %s: %d drop rules, %d anchors\n", path, fs.NumDrops(), len(fs.Anchors()))
	if c.coord != nil {
		gen, sum := c.coord.FilterGen()
		fmt.Fprintf(w, "filter generation %d (%016x) pushed to the fleet\n", gen, sum)
	}
	return nil
}

// readMRTUpdates loads and annotates the canonical per-prefix updates of
// an (optionally gzipped) MRT stream.
func readMRTUpdates(inPath string) ([]*update.Update, error) {
	f, err := os.Open(inPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(inPath, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, err
		}
		defer gz.Close()
		r = gz
	}
	mr := mrt.NewReader(r)
	var us []*update.Update
	for {
		rec, err := mr.ReadRecord()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		us = append(us, rec.CanonicalUpdates()...)
	}
	update.Annotate(us)
	return us, nil
}

// trainFromMRT replays an MRT stream through the recompute engine —
// parallel, incremental, and installed via the generation-token path —
// writes the resulting filter file, and hands the training window's
// per-prefix digests to the data-quality plane as the drift baseline.
func trainFromMRT(w io.Writer, rec *orchestrator.Recomputer, qp *quality.Plane, inPath, outPath string) error {
	us, err := readMRTUpdates(inPath)
	if err != nil {
		return err
	}
	// MRT update streams carry no table dumps; bootstrap each VP's
	// baseline RIB from the first path it announces per prefix, so event
	// detection (component #2) has a reference state.
	baseline := make(map[string]map[netip.Prefix][]uint32)
	for _, u := range us {
		if u.Withdraw || len(u.Path) == 0 {
			continue
		}
		m := baseline[u.VP]
		if m == nil {
			m = make(map[netip.Prefix][]uint32)
			baseline[u.VP] = m
		}
		if _, seen := m[u.Prefix]; !seen {
			m[u.Prefix] = u.Path
		}
	}
	m, err := rec.Refresh(1, core.TrainingData{
		Updates:  us,
		Baseline: baseline,
		TotalVPs: len(baseline),
	})
	if err != nil {
		return err
	}
	if m.Correlation != nil {
		qp.SetBaseline(m.Correlation.Baseline())
	}

	out, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer out.Close()
	if err := m.Filters.Marshal(out); err != nil {
		return err
	}
	fmt.Fprintf(w, "trained on %d updates from %d VPs: %d drop rules, %d anchors → %s\n",
		len(us), len(baseline), m.Filters.NumDrops(), len(m.Filters.Anchors()), outPath)
	return nil
}

// auditFromMRT replays an MRT stream through the data-quality plane
// against the currently installed filter set: every update is shadowed
// with the filters' keep/discard verdict, then one audit pass reports
// live reconstitution power, use-case coverage, and drift against the
// last training's digests.
func auditFromMRT(w io.Writer, o *orchestrator.Orchestrator, qp *quality.Plane, inPath string) error {
	us, err := readMRTUpdates(inPath)
	if err != nil {
		return err
	}
	fs := o.Filters() // nil until the first install: audit a retain-everything view
	kept := 0
	for _, u := range us {
		k := fs == nil || fs.Keep(u)
		if k {
			kept++
		}
		qp.ObserveShadow(u, k)
	}
	r := qp.Audit()
	fmt.Fprintf(w, "audited %d updates (%d kept, %d discarded): live_rp=%.3f (training %.2f), drift=%.3f (%s baseline), coverage:\n",
		len(us), kept, len(us)-kept, r.LiveRP, r.TrainingRP, r.Drift.Score, r.Drift.Baseline)
	for name, v := range r.Coverage {
		fmt.Fprintf(w, "  %-24s %.3f\n", name, v)
	}
	if r.Drift.Crossed {
		fmt.Fprintf(w, "  DRIFT threshold crossed: %d novel of %d updates, %d changed prefixes, %d new prefixes\n",
			r.Drift.NovelUpdates, r.Drift.TotalUpdates, r.Drift.ChangedPrefixes, r.Drift.NewPrefixes)
	}
	return nil
}
