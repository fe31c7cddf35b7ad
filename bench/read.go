package main

// The read phase: a closed loop of range queries and RIB reconstructions
// against the archive the run just wrote, each answer checked against the
// ledger of lines the stream reader kept for the queried prefixes.

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"time"

	"repro/bench/gen"
	"repro/internal/index"
	"repro/internal/update"
)

// queryRanks are the popularity ranks (0-based) of the three prefixes the
// read phase asks about: hot, warm and cold. Each is ≡ 3 mod 10 so that
// the burst workload's filter set retains it for sender 0.
var queryRanks = [3]int{3, 33, 10003}

// watchSet is the set of prefixes whose every line the ledger keeps.
func watchSet(st *gen.Stream) map[int]bool {
	watch := make(map[int]bool, len(queryRanks))
	for _, rank := range queryRanks {
		watch[st.ByRank[rank]] = true
	}
	return watch
}

// A read is timed as a round: the same question about the hot, the warm
// and the cold prefix, one call after the other. Single calls fall into
// three classes of cost, and the median of such a mixture moves with how
// many calls of each class the time budget happened to admit; rounds are
// alike, so their median means something.
const (
	readQueries = 66 // rounds
	readRIBs    = 33 // rounds
	queryWindow = 5  // seconds covered by one range query
	// Each half of the read phase also ends once it has used its time
	// budget and readMin rounds are done: a large archive makes single
	// reads slow, and the whole run has to fit the driver's time cap.
	readBudget = 2500 * time.Millisecond
	readMin    = 2
)

// answer is what a read returned, reduced to what the ledger can check:
// the tags of the announcements and the number of withdrawals, per VP.
type answer struct {
	tags        map[int][]uint32 // vp → tags in answer order
	withdrawals int
}

// archiveReader is the serving plane's read API, over HTTP on a daemon or
// called directly on an in-process index.Service.
type archiveReader interface {
	query(prefix, vp int, from, to int64) (answer, time.Duration, error)
	rib(at int64, prefix int) (answer, time.Duration, error)
}

// record is one update of an answer, in the /api JSON's field names.
type record struct {
	VP          string
	Communities []uint32
	Withdraw    bool
}

func toAnswer(recs []record) (answer, error) {
	a := answer{tags: make(map[int][]uint32)}
	for _, r := range recs {
		switch {
		case r.Withdraw:
			a.withdrawals++
		case len(r.Communities) == 0 || len(r.VP) < 3:
			return a, fmt.Errorf("announcement without a tag or VP: %+v", r)
		default:
			as, _ := digits([]byte(r.VP[2:]))
			a.tags[as-gen.FirstAS] = append(a.tags[as-gen.FirstAS], r.Communities[len(r.Communities)-1])
		}
	}
	return a, nil
}

// httpReader reads through the daemon's /api. The timed span is request
// to last body byte; JSON decoding of the answer is the harness's cost.
type httpReader struct {
	base string
	c    *http.Client
}

func (h httpReader) get(url string) (answer, time.Duration, error) {
	start := time.Now()
	body, err := httpGet(h.c, h.base+url)
	took := time.Since(start)
	if err != nil {
		return answer{}, took, err
	}
	var resp struct {
		Truncated bool
		Updates   []record
	}
	if err := json.Unmarshal(body, &resp); err != nil {
		return answer{}, took, err
	}
	if resp.Truncated {
		return answer{}, took, fmt.Errorf("GET %s: answer truncated", url)
	}
	a, err := toAnswer(resp.Updates)
	return a, took, err
}

func (h httpReader) query(prefix, vp int, from, to int64) (answer, time.Duration, error) {
	return h.get(fmt.Sprintf("/api/query?prefix=%s&vp=%s&from=%d&to=%d", gen.Prefix(prefix), gen.VPName(vp), from, to))
}

func (h httpReader) rib(at int64, prefix int) (answer, time.Duration, error) {
	return h.get(fmt.Sprintf("/api/rib?at=%d&prefix=%s", at, gen.Prefix(prefix)))
}

// directReader calls an in-process index.Service.
type directReader struct{ svc *index.Service }

func (d directReader) answer(start time.Time, us []*update.Update, err error) (answer, time.Duration, error) {
	took := time.Since(start)
	if err != nil {
		return answer{}, took, err
	}
	recs := make([]record, len(us))
	for i, u := range us {
		recs[i] = record{u.VP, u.Comms, u.Withdraw}
	}
	a, err := toAnswer(recs)
	return a, took, err
}

func (d directReader) query(prefix, vp int, from, to int64) (answer, time.Duration, error) {
	start := time.Now()
	us, err := d.svc.Query(index.Query{From: time.Unix(from, 0), To: time.Unix(to, 0), Prefix: gen.Prefix(prefix), VP: gen.VPName(vp)})
	return d.answer(start, us, err)
}

func (d directReader) rib(at int64, prefix int) (answer, time.Duration, error) {
	start := time.Now()
	us, err := d.svc.RIBAt(time.Unix(at, 0), gen.Prefix(prefix), "")
	return d.answer(start, us, err)
}

// readResult is the read phase's outcome.
type readResult struct {
	queryMS, ribMS []float64 // per round
	wrong          int       // answers that differ from the ledger, or errors
	firstWrong     string
}

// readPhase issues the queries and checks every answer. watched holds, in
// archive write order, every line of the three query prefixes; tsMin and
// tsMax bound the archive's timestamps.
func readPhase(ar archiveReader, st *gen.Stream, watched []line, tsMin, tsMax, seed int64, t0 time.Time, tc *tracer) readResult {
	var res readResult
	r := rand.New(rand.NewSource(seed ^ 0x72656164))
	fail := func(format string, args ...any) {
		if res.wrong++; res.firstWrong == "" {
			res.firstWrong = fmt.Sprintf(format, args...)
		}
	}
	record := func(name string, took time.Duration) {
		end := time.Since(t0)
		tc.root(name, int64(end-took), int64(end))
	}
	phase := time.Now()
	for i := 0; i < readQueries && (i < readMin || time.Since(phase) < readBudget); i++ {
		// Windows lie wholly inside the archive; how many segments one
		// touches depends on where it falls, so every round draws its own.
		vp := r.Intn(st.VPs)
		from := tsMin + r.Int63n(max(1, tsMax-tsMin-queryWindow+1))
		to := from + queryWindow
		var round time.Duration
		for _, rank := range queryRanks {
			prefix := st.ByRank[rank]
			got, took, err := ar.query(prefix, vp, from, to)
			record("query", took)
			round += took
			if err != nil {
				fail("query: %v", err)
				continue
			}
			var want answer
			want.tags = map[int][]uint32{}
			for _, l := range watched {
				if l.prefix != prefix || l.vp != vp || l.ts < from || l.ts >= to {
					continue
				}
				if l.withdraw {
					want.withdrawals++
				} else {
					want.tags[vp] = append(want.tags[vp], l.tag)
				}
			}
			if !sameAnswer(got, want) {
				fail("query prefix=%s vp=%s [%d,%d): got %d announcements + %d withdrawals, ledger has %d + %d",
					gen.Prefix(prefix), gen.VPName(vp), from, to, len(got.tags[vp]), got.withdrawals, len(want.tags[vp]), want.withdrawals)
			}
		}
		res.queryMS = append(res.queryMS, float64(round)/1e6)
	}
	phase = time.Now()
	for i := 0; i < readRIBs && (i < readMin || time.Since(phase) < readBudget); i++ {
		// Reconstruct at the archive's end: every call replays the whole
		// archive for its prefix, so the rounds are alike.
		at := tsMax
		var round time.Duration
		for _, rank := range queryRanks {
			prefix := st.ByRank[rank]
			got, took, err := ar.rib(at, prefix)
			record("rib", took)
			round += took
			if err != nil {
				fail("rib: %v", err)
				continue
			}
			// Last writer wins per VP; a withdrawal removes the route.
			last := map[int]line{}
			for _, l := range watched {
				if l.prefix == prefix && l.ts <= at {
					last[l.vp] = l
				}
			}
			want := answer{tags: map[int][]uint32{}}
			for vp, l := range last {
				if !l.withdraw {
					want.tags[vp] = []uint32{l.tag}
				}
			}
			if !sameAnswer(got, want) {
				fail("rib prefix=%s at=%d: got %v, ledger has %v", gen.Prefix(prefix), at, got.tags, want.tags)
			}
		}
		res.ribMS = append(res.ribMS, float64(round)/1e6)
	}
	return res
}

// sameAnswer compares two answers. Range queries sort by whole-second
// timestamp and keep write order within a second, which is the ledger's
// order too, so tags must match position by position.
func sameAnswer(a, b answer) bool {
	if a.withdrawals != b.withdrawals || len(a.tags) != len(b.tags) {
		return false
	}
	for vp, at := range a.tags {
		bt := b.tags[vp]
		if len(at) != len(bt) {
			return false
		}
		for i := range at {
			if at[i] != bt[i] {
				return false
			}
		}
	}
	return true
}
