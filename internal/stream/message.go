package stream

// The wire schema of the read side (§9: GILL publishes retained updates in
// near real time, RIS-Live style): the one JSON object the /stream hub,
// the /api query endpoints and their clients all exchange.

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
	// Seq is the stream hub's id for the event (1-based; 0 on query
	// responses, which are not published). It is unique within one hub and
	// restarts at 1 with the collector, but it is not an order: the hub's
	// concurrent publishers take ids and enqueue independently, so id N+1
	// can arrive before N. A gap in the ids a subscriber sees is therefore
	// no proof of loss, and the ids are not a deduplication key.
	Seq uint64 `json:"seq,omitempty"`
	// TraceID is the distributed trace ID (16 hex digits) of a sampled
	// update, empty for the unsampled majority. Consumers can join it
	// against /fleet/tracez to see the update's full pipeline journey.
	TraceID string `json:"trace_id,omitempty"`
}

// ToMessage converts a canonical update. Path and Communities alias u's
// slices (shared read-only).
func ToMessage(u *update.Update) *Message {
	return &Message{
		Type:        "UPDATE",
		VP:          u.VP,
		Timestamp:   u.Time.Unix(),
		Prefix:      u.Prefix.String(),
		Path:        u.Path,
		Communities: u.Comms,
		Withdraw:    u.Withdraw,
		TraceID:     telemetry.SpanID(u.TraceID).String(),
	}
}

// ToUpdate converts a message back to the canonical form.
func (m *Message) ToUpdate() (*update.Update, error) {
	p, err := netip.ParsePrefix(m.Prefix)
	if err != nil {
		return nil, fmt.Errorf("stream: bad prefix %q: %w", m.Prefix, err)
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
