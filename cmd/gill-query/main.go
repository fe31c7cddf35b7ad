// Command gill-query is the serving plane's CLI: it answers range
// queries and reconstructs routing state from a GILL daemon's archive,
// in two modes.
//
// WAL mode queries the daemon's -wal directory — the crash-safe record
// journal that is the §9 database — through its skip-index (built
// incrementally by the daemon, rebuildable offline):
//
//	gill-query -wal ./wal -stats               # index inventory
//	gill-query -wal ./wal -rebuild             # rebuild the index by scanning
//	gill-query -wal ./wal -from ... -to ... [-vp ...] [-prefix ...] [-count]
//	gill-query -wal ./wal -rib -at 2023-09-01T06:00:00Z [-vp ...] [-prefix ...]
//	gill-query -wal ./wal -mrt updates.mrt.gz [-from ...] [-to ...] [-vp ...] [-prefix ...]
//
// -mrt exports the matching journal records unchanged as an MRT file
// (gzip-compressed for a .gz name), in write order, for RouteViews-style
// tools: the daemon's journal is its only archive, and MRT files are
// exports of it.
//
// HTTP mode asks a running daemon's admin plane the same questions over
// its /api endpoints (timestamps additionally accept unix seconds and
// "now"):
//
//	gill-query -http 127.0.0.1:8471 -stats
//	gill-query -http 127.0.0.1:8471 -rib -at now -prefix 203.0.113.0/24
//
// Both modes also answer archive-health questions: -gaps
// audits per-VP coverage (offline by replaying the journal, online by
// asking the daemon's /vitalz):
//
//	gill-query -wal ./wal -gaps [-gap-min 5m] [-vp vp65001]
//	gill-query -http 127.0.0.1:8471 -gaps
package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/netip"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/index"
	"repro/internal/stream"
	"repro/internal/update"
	"repro/internal/vitals"
)

func main() {
	var (
		walDir   = flag.String("wal", "", "record journal directory (indexed WAL segments)")
		httpAddr = flag.String("http", "", "admin-plane host:port of a running daemon")
		from     = flag.String("from", "", "range start (RFC 3339)")
		to       = flag.String("to", "", "range end (RFC 3339)")
		at       = flag.String("at", "", "RIB reconstruction time (RFC 3339; HTTP mode also unix seconds or \"now\")")
		vp       = flag.String("vp", "", "restrict to one vantage point")
		prefix   = flag.String("prefix", "", "restrict to one prefix")
		rib      = flag.Bool("rib", false, "reconstruct routing state at -at instead of listing updates")
		stats    = flag.Bool("stats", false, "print the index inventory")
		rebuild  = flag.Bool("rebuild", false, "rebuild the index by scanning every segment (WAL mode)")
		count    = flag.Bool("count", false, "print only the number of matching updates")
		gaps     = flag.Bool("gaps", false, "audit per-VP archive coverage and report gaps")
		gapMin   = flag.Duration("gap-min", 5*time.Minute, "smallest inter-record spacing reported as a gap (WAL -gaps)")
		mrtOut   = flag.String("mrt", "", "export the matching journal records to this MRT file (.gz: gzip-compressed; WAL mode)")
	)
	flag.Parse()

	if (*walDir == "") == (*httpAddr == "") {
		log.Fatal("gill-query: exactly one of -wal, -http is required")
	}
	if *mrtOut != "" && (*httpAddr != "" || *rib || *gaps) {
		log.Fatal("gill-query: -mrt exports updates from a -wal directory; it does not combine with -http, -rib or -gaps")
	}
	switch {
	case *walDir != "":
		if *gaps {
			gapsWALMode(*walDir, *vp, *gapMin)
			return
		}
		walMode(*walDir, *from, *to, *at, *vp, *prefix, *mrtOut, *rib, *stats, *rebuild, *count)
	default:
		if *gaps {
			gapsHTTPMode(*httpAddr, *vp)
			return
		}
		httpMode(*httpAddr, *from, *to, *at, *vp, *prefix, *rib, *stats, *count)
	}
}

// walMode queries the journal through the skip-index, or exports the
// updates it selects to the MRT file mrtOut.
func walMode(dir, from, to, at, vp, prefix, mrtOut string, rib, stats, rebuild, count bool) {
	svc, err := index.NewService(dir, nil)
	if err != nil {
		log.Fatalf("gill-query: %v", err)
	}
	if rebuild {
		if err := svc.Index.Rebuild(); err != nil {
			log.Fatalf("gill-query: rebuild: %v", err)
		}
	}
	if stats || rebuild {
		printStats(svc.Index.Stats())
		if !rib && from == "" && mrtOut == "" {
			return
		}
	}
	pfx := parsePrefixFlag(prefix)
	if rib {
		when, err := time.Parse(time.RFC3339, at)
		if err != nil {
			log.Fatalf("gill-query: bad -at: %v", err)
		}
		routes, err := svc.RIBAt(when, pfx, vp)
		if err != nil {
			log.Fatalf("gill-query: %v", err)
		}
		printUpdates(routes, count)
		return
	}
	var q index.Query
	if from != "" {
		if q.From, err = time.Parse(time.RFC3339, from); err != nil {
			log.Fatalf("gill-query: bad -from: %v", err)
		}
	}
	if to != "" {
		if q.To, err = time.Parse(time.RFC3339, to); err != nil {
			log.Fatalf("gill-query: bad -to: %v", err)
		}
	}
	q.Prefix, q.VP = pfx, vp
	if mrtOut != "" {
		n, err := exportMRT(svc, q, mrtOut)
		if err != nil {
			log.Fatalf("gill-query: export: %v", err)
		}
		fmt.Printf("%d records exported to %s\n", n, mrtOut)
		return
	}
	us, err := svc.Query(q)
	if err != nil {
		log.Fatalf("gill-query: %v", err)
	}
	printUpdates(us, count)
}

// exportMRT writes the journal records q selects to the file path,
// gzip-compressed when its name ends in .gz, and returns how many it
// wrote.
func exportMRT(svc *index.Service, q index.Query, path string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	var w io.Writer = bw
	closers := []func() error{bw.Flush, f.Close} // outermost writer first
	if strings.HasSuffix(path, ".gz") {
		gz := gzip.NewWriter(bw)
		w, closers = gz, append([]func() error{gz.Close}, closers...)
	}
	n, err := svc.Export(q, w)
	for _, c := range closers {
		err = errors.Join(err, c())
	}
	return n, err
}

// gapsWALMode replays a journal directory through the gap auditor and
// prints per-VP coverage — the offline twin of the daemon's online
// auditor (both fold the same Observe stream, so they agree exactly).
func gapsWALMode(dir, vp string, maxGap time.Duration) {
	aud := vitals.NewGapAuditor(maxGap, nil)
	if err := aud.AuditDir(dir); err != nil {
		log.Fatalf("gill-query: gap audit: %v", err)
	}
	printGapReport(aud.Report(), vp)
}

// gapsHTTPMode asks a running daemon's /vitalz for its live view and
// prints VP health plus the online gap audit.
func gapsHTTPMode(addr, vp string) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	var snap vitals.Snapshot
	getJSON(base+"/vitalz", &snap)
	for _, v := range snap.VPs {
		if vp != "" && v.VP != vp {
			continue
		}
		fmt.Printf("%-12s %-9s age %6.1fs  rate %6.2f/s (long %6.2f/s)  updates %d\n",
			v.VP, v.State, float64(v.AgeMS)/1000, v.RateShort, v.RateLong, v.Updates)
	}
	if snap.Gaps != nil {
		printGapReport(*snap.Gaps, vp)
	}
}

func printGapReport(rep vitals.GapReport, vp string) {
	fmt.Printf("segments %d (%d sealed, %d torn)  records %d  gap seconds %.0f\n",
		rep.Segments, rep.Sealed, rep.Torn, rep.Records, rep.GapSecondsTotal)
	for _, c := range rep.VPs {
		if vp != "" && c.VP != vp {
			continue
		}
		fmt.Printf("%-12s %s .. %s  coverage %6.2f%%  gaps %d (%.0fs)  records %d\n",
			c.VP, c.First.UTC().Format(time.RFC3339), c.Last.UTC().Format(time.RFC3339),
			c.CoveragePct, len(c.Gaps), c.GapSeconds, c.Records)
		for _, g := range c.Gaps {
			fmt.Printf("  gap %s .. %s  (%.0fs)\n",
				g.From.UTC().Format(time.RFC3339), g.To.UTC().Format(time.RFC3339), g.Seconds)
		}
	}
}

// httpMode asks a running daemon over its admin-plane /api endpoints.
func httpMode(addr, from, to, at, vp, prefix string, rib, stats, count bool) {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if stats {
		var st index.Stats
		getJSON(base+"/api/index", &st)
		printStats(st)
		return
	}
	v := url.Values{}
	if vp != "" {
		v.Set("vp", vp)
	}
	if prefix != "" {
		v.Set("prefix", prefix)
	}
	var path string
	if rib {
		if at == "" {
			at = "now"
		}
		v.Set("at", at)
		path = "/api/rib"
	} else {
		if from != "" {
			v.Set("from", from)
		}
		if to != "" {
			v.Set("to", to)
		}
		path = "/api/query"
	}
	var envelope struct {
		Count     int               `json:"count"`
		Truncated bool              `json:"truncated"`
		Updates   []*stream.Message `json:"updates"`
	}
	getJSON(base+path+"?"+v.Encode(), &envelope)
	if count {
		fmt.Println(envelope.Count)
		return
	}
	for _, m := range envelope.Updates {
		u, err := m.ToUpdate()
		if err != nil {
			log.Fatalf("gill-query: bad update in response: %v", err)
		}
		printUpdate(u)
	}
	if envelope.Truncated {
		fmt.Println("... (truncated by the server's response limit)")
	}
}

func getJSON(u string, into any) {
	resp, err := http.Get(u)
	if err != nil {
		log.Fatalf("gill-query: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		log.Fatalf("gill-query: %s: %s %s", u, resp.Status, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		log.Fatalf("gill-query: decoding %s: %v", u, err)
	}
}

func parsePrefixFlag(s string) netip.Prefix {
	if s == "" {
		return netip.Prefix{}
	}
	p, err := netip.ParsePrefix(s)
	if err != nil {
		log.Fatalf("gill-query: bad -prefix: %v", err)
	}
	return p
}

func printStats(st index.Stats) {
	fmt.Printf("segments %d (%d sealed)  records %d  vps %d  bytes %d\n",
		st.Segments, st.Sealed, st.Records, st.VPs, st.Bytes)
	if st.Records > 0 {
		fmt.Printf("window %s .. %s\n",
			time.Unix(st.MinTime, 0).UTC().Format(time.RFC3339),
			time.Unix(st.MaxTime, 0).UTC().Format(time.RFC3339))
	}
}

func printUpdates(us []*update.Update, count bool) {
	if count {
		fmt.Println(len(us))
		return
	}
	for _, u := range us {
		printUpdate(u)
	}
}

func printUpdate(u *update.Update) {
	if u.Withdraw {
		fmt.Printf("%s %-10s WITHDRAW %s\n", u.Time.Format(time.RFC3339), u.VP, u.Prefix)
		return
	}
	path := make([]string, len(u.Path))
	for i, as := range u.Path {
		path[i] = fmt.Sprint(as)
	}
	fmt.Printf("%s %-10s %s via %s\n", u.Time.Format(time.RFC3339), u.VP, u.Prefix, strings.Join(path, " "))
}
