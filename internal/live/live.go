// Package live is the wire schema of the read side (§9: GILL publishes
// retained updates in near real time, RIS-Live style): the one JSON
// object the /stream hub, the /api query endpoints and their clients
// all exchange. The feed itself lives in internal/stream.
package live

import (
	"fmt"
	"net/netip"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/update"
)

// Message is one streamed update, wire-compatible across versions.
type Message struct {
	Type        string   `json:"type"` // "UPDATE"
	VP          string   `json:"vp"`
	Timestamp   int64    `json:"timestamp"`
	Prefix      string   `json:"prefix"`
	Path        []uint32 `json:"path,omitempty"`
	Communities []uint32 `json:"communities,omitempty"`
	Withdraw    bool     `json:"withdraw,omitempty"`
	// Seq is the stream hub's publish sequence number (1-based; 0 on
	// query responses, which are not published). A sequence belongs to
	// one hub: stream.Tail uses it to deliver each update at most once,
	// and to recognise a restarted collector by its sequence starting over.
	Seq uint64 `json:"seq,omitempty"`
	// TraceID is the distributed trace ID (16 hex digits) of a sampled
	// update, empty for the unsampled majority. Consumers can join it
	// against /fleet/tracez to see the update's full pipeline journey.
	TraceID string `json:"trace_id,omitempty"`
}

// ToMessage converts a canonical update.
func ToMessage(u *update.Update) *Message {
	m := &Message{}
	m.Fill(u)
	return m
}

// Fill populates m from u in place, overwriting every field. Path and
// Communities alias u's slices (shared read-only), so a filled Message
// allocates only the prefix and trace-ID strings. Publishers that embed
// the Message in a larger envelope use Fill to skip the separate
// allocation ToMessage would make.
func (m *Message) Fill(u *update.Update) {
	m.Type = "UPDATE"
	m.VP = u.VP
	m.Timestamp = u.Time.Unix()
	m.Prefix = u.Prefix.String()
	m.Path = u.Path
	m.Communities = u.Comms
	m.Withdraw = u.Withdraw
	m.Seq = 0
	m.TraceID = telemetry.SpanID(u.TraceID).String()
}

// ToUpdate converts a message back to the canonical form.
func (m *Message) ToUpdate() (*update.Update, error) {
	p, err := netip.ParsePrefix(m.Prefix)
	if err != nil {
		return nil, fmt.Errorf("live: bad prefix %q: %w", m.Prefix, err)
	}
	u := &update.Update{
		VP:       m.VP,
		Time:     time.Unix(m.Timestamp, 0).UTC(),
		Prefix:   p,
		Path:     m.Path,
		Comms:    m.Communities,
		Withdraw: m.Withdraw,
	}
	if m.TraceID != "" {
		if id, err := strconv.ParseUint(m.TraceID, 16, 64); err == nil {
			u.TraceID = id
		}
	}
	return u, nil
}
