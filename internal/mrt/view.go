package mrt

import (
	"errors"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/update"
)

// UpdateView is the allocation-free read path over an update archive. It
// decodes one BGP4MP record at a time into storage it owns and reuses, so
// a scan over millions of archived records allocates nothing per record;
// only Canonical, called for the records a reader actually keeps,
// allocates. A view accepts exactly the BGP4MP records Reader.ReadRecord
// accepts and exposes what Record.CanonicalUpdates derives from them.
// The zero value is ready to use; a view is not safe for concurrent use.
type UpdateView struct {
	// Time is the record's header timestamp (UTC, second resolution).
	Time time.Time
	// Peer is the record's BGP4MP header; its Message field is unused.
	Peer BGP4MPMessage
	// Update is the record's BGP UPDATE, lazily decoded (read the AS path
	// and communities through its accessors), or nil when the record
	// carries another BGP message. It is valid until the next Decode.
	Update *bgp.Update

	upd bgp.Update
	vps map[uint32]string // interned VP names by peer AS
}

// Decode parses one MRT record from the head of payload. Anything that is
// not a well-formed BGP4MP message record is an error; archive scanners
// skip such frames the way they skip frames ReadRecord rejects.
func (v *UpdateView) Decode(payload []byte) error {
	if len(payload) < 12 {
		return ErrShortRecord
	}
	hdr := parseHeader(payload)
	body := payload[12:]
	if uint64(hdr.Length) > uint64(len(body)) {
		return ErrShortRecord
	}
	body = body[:hdr.Length]
	switch hdr.Type {
	case TypeBGP4MP:
	case TypeBGP4MPET:
		if len(body) < 4 {
			return ErrShortRecord
		}
		body = body[4:] // microseconds
	default:
		return ErrUnknownType
	}
	if hdr.Subtype != SubtypeBGP4MPMessage && hdr.Subtype != SubtypeBGP4MPMessageAS4 {
		return ErrUnknownSubtype
	}
	msg, err := v.Peer.parseHeader(body)
	if err != nil {
		return err
	}
	v.Time = hdr.Timestamp
	switch err := bgp.UnmarshalUpdate(msg, &v.upd); {
	case err == nil:
		v.Update = &v.upd
	case errors.Is(err, bgp.ErrNotUpdate):
		// Rare in an update archive; validated the allocating way.
		if _, err := bgp.Unmarshal(msg); err != nil {
			return err
		}
		v.Update = nil
	default:
		return err
	}
	return nil
}

// VP returns the canonical name of the record's vantage point
// ("vp<peer AS>"), interned so that repeated records of one peer share
// one string.
func (v *UpdateView) VP() string {
	name, ok := v.vps[v.Peer.PeerAS]
	if !ok {
		if v.vps == nil {
			v.vps = make(map[uint32]string)
		}
		name = "vp" + utoa(v.Peer.PeerAS)
		v.vps[v.Peer.PeerAS] = name
	}
	return name
}

// Each calls fn for every prefix the record announces or withdraws, in
// the order CanonicalUpdates lists them.
func (v *UpdateView) Each(fn func(p netip.Prefix, withdraw bool)) {
	if v.Update != nil {
		eachPrefix(v.Update, fn)
	}
}

// Canonical materializes the canonical update for one (prefix, withdraw)
// pair Each delivered. The result owns all of its data.
func (v *UpdateView) Canonical(p netip.Prefix, withdraw bool) *update.Update {
	u := &update.Update{VP: v.VP(), Time: v.Time, Prefix: p, Withdraw: withdraw}
	if !withdraw {
		u.Path = append([]uint32(nil), v.Update.Path()...)
		mcs := v.Update.Comms()
		u.Comms = make([]uint32, len(mcs))
		for i, c := range mcs {
			u.Comms[i] = uint32(c)
		}
	}
	return u
}
