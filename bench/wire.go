package main

// The generator side of a daemon workload: BGP sessions on raw TCP
// connections, open-loop and closed-loop senders, and the /stream reader.
// Each of the three per-message arrays below has exactly one writing
// goroutine and is read only after every goroutine has been joined.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/bench/gen"
	"repro/internal/bgp"
)

// dialSession opens sender vp's BGP session to the daemon.
func dialSession(addr string, vp int) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if err := handshake(conn, vp); err != nil {
		conn.Close()
		return nil, err
	}
	return conn, nil
}

// handshake establishes sender vp's session on conn with the codec
// directly, so later writes can be batched (bgp.Session.Send flushes per
// message). The daemon speaks first; answering in turn also works over an
// unbuffered net.Pipe.
func handshake(conn net.Conn, vp int) error {
	as := uint32(gen.FirstAS + vp)
	id := netip.AddrFrom4([4]byte{10, 0, byte(as >> 8), byte(as)})
	_, err := bgp.ReadMessage(conn) // the daemon's OPEN
	if err == nil {
		err = bgp.WriteMessage(conn, bgp.NewOpen(as, 180, id))
	}
	var m bgp.Message
	if err == nil {
		m, err = bgp.ReadMessage(conn)
	}
	if err == nil {
		if _, ok := m.(*bgp.Keepalive); !ok {
			err = fmt.Errorf("expected KEEPALIVE, got message type %d", m.Type())
		}
	}
	if err == nil {
		err = bgp.WriteMessage(conn, &bgp.Keepalive{})
	}
	if err != nil {
		return fmt.Errorf("session vp%d: %w", as, err)
	}
	return nil
}

// writeBatch caps the bytes handed to one conn.Write.
const writeBatch = 64 << 10

// traffic is the shared state of one run's senders and stream reader.
type traffic struct {
	st *gen.Stream
	t0 time.Time

	// Indexed by tag. Open loop: tag = message index, due = its schedule.
	// Closed loop: tags are handed out at send time and due = send time.
	// All times are nanoseconds since t0; 0 in seen means never seen.
	due   []int64 // open loop: set-up; closed loop: sender
	wrote []int64 // sender: when the conn.Write carrying the tag returned
	tmpl  []int32 // sender: index of the message a tag was sent with
	seen  []int64 // reader

	// Reader's view of each announcement line, checked against tmpl after
	// the run.
	seenPrefix []int32
	seenVP     []int8

	// Closed-loop window; also the drain condition of every workload.
	mu    sync.Mutex
	cond  *sync.Cond
	sent  int64 // messages handed to senders; guarded by mu in closed loop
	acked atomic.Int64
	stop  atomic.Bool

	// Reader-owned ledger.
	dups      int64
	unknown   int64 // tag out of range: not something we sent
	evicted   bool
	wdSeen    []int32 // per (vp, prefix) withdrawals seen
	watch     map[int]bool
	watched   []line // lines of watched prefixes, in stream order
	tsMin     int64
	tsMax     int64
	blockedNS atomic.Int64 // time senders spent inside conn.Write
}

func newTraffic(st *gen.Stream, tags int) *traffic {
	t := &traffic{
		st:         st,
		due:        make([]int64, tags),
		wrote:      make([]int64, tags),
		tmpl:       make([]int32, tags),
		seen:       make([]int64, tags),
		seenPrefix: make([]int32, tags),
		seenVP:     make([]int8, tags),
		wdSeen:     make([]int32, st.VPs*gen.Prefixes),
		watch:      watchSet(st),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// wake lets goroutines blocked on the window or the drain re-check. Taking
// the lock first closes the gap between their check and their Wait.
func (t *traffic) wake() {
	t.mu.Lock()
	t.mu.Unlock()
	t.cond.Broadcast()
}

func (t *traffic) now() int64 { return int64(time.Since(t.t0)) }

// sentBy is how many messages had been sent when at had passed since t0:
// in an open loop those due by then, in a closed loop those handed out so
// far (the caller asks at that moment).
func (t *traffic) sentBy(at time.Duration, open bool) int64 {
	if open {
		return int64(sort.Search(len(t.due), func(k int) bool { return t.due[k] > int64(at) }))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sent
}

// write sends buf and stamps the tags it carried.
func (t *traffic) write(conn net.Conn, buf []byte, tags []int) error {
	start := time.Now()
	_, err := conn.Write(buf)
	t.blockedNS.Add(int64(time.Since(start)))
	done := t.now()

	for _, k := range tags {
		t.wrote[k] = done
	}
	return err
}

// sendOpen is one sender's open loop: message k of mine goes out when
// due[k] arrives, no matter how the daemon is doing. Messages already due
// are written together; between due times the sender naps (pace.go).
// lateness is how many ms each message's write began after the later of
// its due time and the previous write's return: the generator's own delay,
// with time blocked on the socket (the daemon's back-pressure) left out.
func (t *traffic) sendOpen(conn net.Conn, mine []int) (lateness []float64, err error) {
	paceThread()
	defer runtime.UnlockOSThread()
	lateness = make([]float64, 0, len(mine))
	buf := make([]byte, 0, writeBatch)
	var tags []int
	var free int64 // when the previous write returned
	for i := 0; i < len(mine); {
		now := t.now()
		if wait := t.due[mine[i]] - now; wait > 0 {
			nap(time.Duration(wait))
			continue
		}
		buf, tags = buf[:0], tags[:0]
		for ; i < len(mine) && t.due[mine[i]] <= now && len(buf) < writeBatch-bgp.MaxMessageLen; i++ {
			k := mine[i]
			buf = append(buf, t.st.Msgs[k].Wire...)
			tags = append(tags, k)
			lateness = append(lateness, float64(now-max(t.due[k], free))/1e6)
		}
		if err := t.write(conn, buf, tags); err != nil {
			return lateness, err
		}
		free = t.now()
	}
	return lateness, nil
}

// sendClosed is one sender's closed loop: it cycles through its messages,
// keeping at most window of all senders' messages unacknowledged, until
// stop is set. An acknowledgement is the message's line on /stream.
func (t *traffic) sendClosed(conn net.Conn, mine []int, window int) error {
	buf := make([]byte, 0, writeBatch)
	var tags []int
	for next := 0; ; {
		t.mu.Lock()
		room := int64(window) - (t.sent - t.acked.Load())
		for room <= 0 && !t.stop.Load() {
			t.cond.Wait()
			room = int64(window) - (t.sent - t.acked.Load())
		}
		n := min(room, int64(len(t.due))-t.sent, writeBatch/128)
		first := t.sent
		if t.stop.Load() || n <= 0 {
			t.mu.Unlock()
			return nil
		}
		t.sent += n
		t.mu.Unlock()

		buf, tags = buf[:0], tags[:0]
		now := t.now()
		for k := int(first); k < int(first+n); k++ {
			idx := mine[next%len(mine)]
			next++
			m := &t.st.Msgs[idx]
			start := len(buf)
			buf = append(buf, m.Wire...)
			if !m.Withdraw {
				gen.SetTag(buf[start:], uint32(k))
			}
			t.tmpl[k], t.due[k] = int32(idx), now
			tags = append(tags, k)
		}
		if err := t.write(conn, buf, tags); err != nil {
			return err
		}
	}
}

// readStream consumes /stream until it ends, stamping every line.
func (t *traffic) readStream(body io.Reader) {
	br := bufio.NewReaderSize(body, 256<<10)
	for {
		b, err := br.ReadSlice('\n')
		if err != nil {
			return
		}
		now := t.now()
		l, ok := scanLine(b)
		if !ok {
			t.evicted = t.evicted || bytes.Contains(b, []byte(`"type":"evicted"`))
			continue
		}
		if t.tsMin == 0 || l.ts < t.tsMin {
			t.tsMin = l.ts
		}
		t.tsMax = max(t.tsMax, l.ts)
		if t.watch[l.prefix] {
			t.watched = append(t.watched, l)
		}
		switch k := int(l.tag); {
		case l.vp < 0 || l.vp >= t.st.VPs || l.prefix >= gen.Prefixes:
			t.unknown++
		case l.withdraw:
			t.wdSeen[l.vp*gen.Prefixes+l.prefix]++
		case k >= len(t.seen):
			t.unknown++
		case t.seen[k] != 0:
			t.dups++
		default:
			t.seen[k], t.seenPrefix[k], t.seenVP[k] = max(now, 1), int32(l.prefix), int8(l.vp)
		}
		t.acked.Add(1)
		if br.Buffered() == 0 {
			t.wake()
		}
	}
}
