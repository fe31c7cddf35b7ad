package stream

// The HTTP face of the hub: GET /stream returns an unbounded
// application/x-ndjson response, one live.Message JSON object per line,
// RIS-Live style but over plain chunked HTTP so any client with curl can
// consume it. The filter comes from the query string — either one
// filter=<expression> parameter in the grammar of ParseFilter, or the
// grammar's keys as individual (repeatable) parameters:
//
//	GET /stream?within=203.0.113.0/24&vp=vp65001&type=announce
//	GET /stream?filter=within%3D203.0.113.0%2F24+type%3Dannounce
//
// plus queue= (per-subscriber buffer, clamped to the hub max), rate=
// (messages/second token bucket), and name= (log label). The first line
// is a {"type":"hello"} acknowledging the compiled filter; idle streams
// carry {"type":"keepalive"} lines; a subscriber evicted for falling
// behind gets a final {"type":"evicted"} line before the stream ends.

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"
)

// KeepaliveInterval is how often an idle stream emits a keepalive line,
// both to hold middleboxes open and to let the server notice dead peers.
const KeepaliveInterval = 15 * time.Second

// DefaultWriteTimeout is the per-write deadline on stream responses. It
// is what turns a silently dead client into a write error: without it a
// peer that vanished without a FIN leaves the handler goroutine parked in
// Write once the socket buffer fills, leaking one goroutine (plus its
// subscriber slot) per dead client.
const DefaultWriteTimeout = 30 * time.Second

// filterKeys are the grammar keys accepted as direct query parameters.
var filterKeys = []string{"prefix", "within", "vp", "origin", "community", "path", "type"}

// FilterFromValues compiles a filter from HTTP query parameters: the
// filter= expression first, then any direct key parameters ANDed on top.
func FilterFromValues(v url.Values) (*Filter, error) {
	f, err := ParseFilter(v.Get("filter"))
	if err != nil {
		return nil, err
	}
	for _, key := range filterKeys {
		for _, val := range v[key] {
			if err := f.addTerm(key, val); err != nil {
				return nil, err
			}
		}
	}
	f.raw = "" // reconstruct String() from the merged terms
	return f, nil
}

// StreamHandler returns the NDJSON streaming endpoint for the hub.
func (h *Hub) StreamHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		f, err := FilterFromValues(q)
		if err != nil {
			streamError(w, http.StatusBadRequest, err.Error())
			return
		}
		opts := SubOptions{Filter: f, Name: r.RemoteAddr}
		if v := q.Get("queue"); v != "" {
			n, err := strconv.Atoi(v)
			if err != nil || n <= 0 {
				streamError(w, http.StatusBadRequest, "bad queue: "+v)
				return
			}
			opts.Queue = n
		}
		if v := q.Get("rate"); v != "" {
			rate, err := strconv.ParseFloat(v, 64)
			if err != nil || rate <= 0 {
				streamError(w, http.StatusBadRequest, "bad rate: "+v)
				return
			}
			opts.Rate = rate
		}
		if v := q.Get("name"); v != "" {
			opts.Name = v
		}
		rc := http.NewResponseController(w)

		sub := h.Subscribe(opts)
		defer sub.Close()

		// writeRun pushes lines under one write deadline, then flushes,
		// and returns the error instead of swallowing it. Any failure —
		// deadline exceeded, connection reset, flush error — means the
		// subscriber is dead: the caller must unsubscribe and return
		// immediately, so a client that vanished without closing cannot
		// pin this goroutine (and its subscriber slot) on a full socket
		// buffer. A run is bounded by the subscriber queue, so one deadline
		// covers it.
		writeRun := func(lines ...[]byte) error {
			if err := rc.SetWriteDeadline(h.cfg.Clock().Add(h.cfg.WriteTimeout)); err != nil &&
				!errors.Is(err, http.ErrNotSupported) {
				return err
			}
			for _, line := range lines {
				if _, err := w.Write(line); err != nil {
					return err
				}
			}
			if err := rc.Flush(); err != nil && !errors.Is(err, http.ErrNotSupported) {
				return err
			}
			return nil
		}

		w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
		w.Header().Set("Cache-Control", "no-store")
		w.WriteHeader(http.StatusOK)
		hello, _ := json.Marshal(map[string]string{"type": "hello", "filter": f.String()})
		if err := writeRun(append(hello, '\n')); err != nil {
			return
		}

		// Keepalives are for idle streams: a tick that finds an update was
		// written since the previous one sends nothing.
		keepalive := time.NewTicker(h.cfg.Keepalive)
		defer keepalive.Stop()
		idle := true
		ctx := r.Context()
		var run [][]byte
		for {
			select {
			case ev, ok := <-sub.C():
				if !ok {
					select {
					case <-sub.Evicted():
						// Tell the client why the stream ended; best effort.
						note, _ := json.Marshal(map[string]any{"type": "evicted", "seq": h.seq.Load()})
						_ = writeRun(append(note, '\n'))
					default:
					}
					return
				}
				// The lines already queued behind ev go out in the same run:
				// a burst costs one deadline and one flush, not one per line.
				run = append(run[:0], ev.JSON)
				for n := len(sub.C()); n > 0; n-- {
					run = append(run, (<-sub.C()).JSON)
				}
				err := writeRun(run...)
				clear(run) // don't pin delivered lines until the next run
				if err != nil {
					return
				}
				idle = false
			case <-keepalive.C:
				if !idle {
					idle = true
					continue
				}
				note, _ := json.Marshal(map[string]string{"type": "keepalive"})
				if err := writeRun(append(note, '\n')); err != nil {
					return
				}
			case <-ctx.Done():
				return
			}
		}
	})
}

func streamError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", msg)
}
