package mrt

import (
	"net/netip"

	"repro/internal/bgp"
	"repro/internal/update"
)

// CanonicalUpdates converts a BGP4MP record into the canonical per-prefix
// update records the sampling pipeline consumes. Non-update messages yield
// nothing.
func (r *Record) CanonicalUpdates() []*update.Update {
	if r.BGP4MP == nil {
		return nil
	}
	msg, ok := r.BGP4MP.Message.(*bgp.Update)
	if !ok {
		return nil
	}
	vp := "vp" + utoa(r.BGP4MP.PeerAS)
	var out []*update.Update
	path, mcs := msg.Path(), msg.Comms()
	comms := make([]uint32, len(mcs))
	for i, c := range mcs {
		comms[i] = uint32(c)
	}
	eachPrefix(msg, func(p netip.Prefix, withdraw bool) {
		u := &update.Update{VP: vp, Time: r.Header.Timestamp, Prefix: p, Withdraw: withdraw}
		if !withdraw {
			u.Path, u.Comms = path, comms
		}
		out = append(out, u)
	})
	return out
}

// eachPrefix calls fn for every prefix u announces, then every prefix it
// withdraws — the order of the canonical updates of one message.
func eachPrefix(u *bgp.Update, fn func(p netip.Prefix, withdraw bool)) {
	for _, p := range u.NLRI {
		fn(p, false)
	}
	for _, p := range u.V6NLRI {
		fn(p, false)
	}
	for _, p := range u.Withdrawn {
		fn(p, true)
	}
	for _, p := range u.V6Withdrawn {
		fn(p, true)
	}
}

func utoa(v uint32) string {
	if v == 0 {
		return "0"
	}
	var buf [10]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}
