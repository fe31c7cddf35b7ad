// Package mrt implements the MRT routing-information export format
// (RFC 6396) used by RouteViews, RIPE RIS, and GILL to archive BGP data:
// BGP4MP update records and TABLE_DUMP_V2 RIB snapshots, plus compressed
// archive helpers.
package mrt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"repro/internal/bgp"
)

// MRT record types (RFC 6396 §4).
const (
	TypeTableDumpV2 = 13
	TypeBGP4MP      = 16
	TypeBGP4MPET    = 17
)

// BGP4MP subtypes.
const (
	SubtypeBGP4MPMessage    = 1
	SubtypeBGP4MPMessageAS4 = 4
)

// TABLE_DUMP_V2 subtypes.
const (
	SubtypePeerIndexTable = 1
	SubtypeRIBIPv4Unicast = 2
	SubtypeRIBIPv6Unicast = 4
)

// Errors returned by the codec.
var (
	ErrShortRecord    = errors.New("mrt: truncated record")
	ErrUnknownType    = errors.New("mrt: unsupported record type")
	ErrUnknownSubtype = errors.New("mrt: unsupported record subtype")
	ErrBadPeerIndex   = errors.New("mrt: peer index out of range")
)

// Header is the common 12-byte MRT record header.
type Header struct {
	Timestamp time.Time
	Type      uint16
	Subtype   uint16
	Length    uint32
	// Microseconds holds the extended-timestamp fraction for *_ET types.
	Microseconds uint32
}

// Record is one decoded MRT record.
type Record struct {
	Header Header
	// Body is exactly one of the following, depending on Header.Type.
	BGP4MP    *BGP4MPMessage
	PeerIndex *PeerIndexTable
	RIB       *RIBEntrySet
}

// BGP4MPMessage is a BGP4MP_MESSAGE_AS4 record body: one BGP message
// exchanged with a peer (RFC 6396 §4.4.2).
type BGP4MPMessage struct {
	PeerAS    uint32
	LocalAS   uint32
	Interface uint16
	PeerIP    netip.Addr
	LocalIP   netip.Addr
	Message   bgp.Message
}

// PeerIndexTable maps RIB entry peer indexes to peers (RFC 6396 §4.3.1).
type PeerIndexTable struct {
	CollectorID netip.Addr // IPv4 BGP identifier
	ViewName    string
	Peers       []Peer
}

// Peer is one PEER_INDEX_TABLE entry.
type Peer struct {
	BGPID netip.Addr
	IP    netip.Addr
	AS    uint32
}

// RIBEntrySet is one RIB_IPV4_UNICAST / RIB_IPV6_UNICAST record: all the
// collector's routes for one prefix (RFC 6396 §4.3.2).
type RIBEntrySet struct {
	Sequence uint32
	Prefix   netip.Prefix
	Entries  []RIBEntry
}

// RIBEntry is one route in a RIBEntrySet.
type RIBEntry struct {
	PeerIndex      uint16
	OriginatedTime time.Time
	Attrs          bgp.Update // only the attribute fields are meaningful
}

// appendAddr appends the NLRI-style prefix encoding used by RIB records.
func appendAddr(dst []byte, p netip.Prefix) []byte {
	bits := p.Bits()
	dst = append(dst, byte(bits))
	n := (bits + 7) / 8
	if p.Addr().Is4() {
		a := p.Addr().As4()
		return append(dst, a[:n]...)
	}
	a := p.Addr().As16()
	return append(dst, a[:n]...)
}

func parseAddr(src []byte, v6 bool) (netip.Prefix, int, error) {
	if len(src) < 1 {
		return netip.Prefix{}, 0, ErrShortRecord
	}
	bits := int(src[0])
	n := (bits + 7) / 8
	if len(src) < 1+n {
		return netip.Prefix{}, 0, ErrShortRecord
	}
	var addr netip.Addr
	if v6 {
		if bits > 128 {
			return netip.Prefix{}, 0, fmt.Errorf("mrt: bad v6 prefix length %d", bits)
		}
		var raw [16]byte
		copy(raw[:], src[1:1+n])
		addr = netip.AddrFrom16(raw)
	} else {
		if bits > 32 {
			return netip.Prefix{}, 0, fmt.Errorf("mrt: bad v4 prefix length %d", bits)
		}
		var raw [4]byte
		copy(raw[:], src[1:1+n])
		addr = netip.AddrFrom4(raw)
	}
	p, err := addr.Prefix(bits)
	if err != nil {
		return netip.Prefix{}, 0, err
	}
	return p, 1 + n, nil
}

// appendBody appends the record body for the given type/subtype to dst.
func (r *Record) appendBody(dst []byte) ([]byte, error) {
	switch r.Header.Type {
	case TypeBGP4MP, TypeBGP4MPET:
		return r.BGP4MP.appendTo(dst)
	case TypeTableDumpV2:
		switch r.Header.Subtype {
		case SubtypePeerIndexTable:
			return r.PeerIndex.appendTo(dst)
		case SubtypeRIBIPv4Unicast, SubtypeRIBIPv6Unicast:
			return r.RIB.appendTo(dst, r.Header.Subtype == SubtypeRIBIPv6Unicast)
		}
	}
	return nil, fmt.Errorf("%w: type=%d subtype=%d", ErrUnknownType, r.Header.Type, r.Header.Subtype)
}

func (m *BGP4MPMessage) appendTo(b []byte) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, m.PeerAS)
	b = binary.BigEndian.AppendUint32(b, m.LocalAS)
	b = binary.BigEndian.AppendUint16(b, m.Interface)
	v6 := m.PeerIP.Is6() && !m.PeerIP.Is4In6()
	if v6 {
		b = binary.BigEndian.AppendUint16(b, bgp.AFIIPv6)
		p, l := m.PeerIP.As16(), m.LocalIP.As16()
		b = append(b, p[:]...)
		b = append(b, l[:]...)
	} else {
		b = binary.BigEndian.AppendUint16(b, bgp.AFIIPv4)
		p, l := m.PeerIP.As4(), m.LocalIP.As4()
		b = append(b, p[:]...)
		b = append(b, l[:]...)
	}
	return bgp.AppendMessage(b, m.Message)
}

func parseBGP4MP(src []byte) (*BGP4MPMessage, error) {
	m := &BGP4MPMessage{}
	rest, err := m.parseHeader(src)
	if err != nil {
		return nil, err
	}
	msg, err := bgp.Unmarshal(rest)
	if err != nil {
		return nil, err
	}
	m.Message = msg
	return m, nil
}

// parseHeader fills m's fixed fields (everything but Message) from a
// BGP4MP body and returns the BGP message bytes that follow them.
func (m *BGP4MPMessage) parseHeader(src []byte) (rest []byte, err error) {
	if len(src) < 12 {
		return nil, ErrShortRecord
	}
	m.PeerAS = binary.BigEndian.Uint32(src[0:4])
	m.LocalAS = binary.BigEndian.Uint32(src[4:8])
	m.Interface = binary.BigEndian.Uint16(src[8:10])
	afi := binary.BigEndian.Uint16(src[10:12])
	rest = src[12:]
	switch afi {
	case bgp.AFIIPv4:
		if len(rest) < 8 {
			return nil, ErrShortRecord
		}
		var p, l [4]byte
		copy(p[:], rest[0:4])
		copy(l[:], rest[4:8])
		m.PeerIP, m.LocalIP = netip.AddrFrom4(p), netip.AddrFrom4(l)
		return rest[8:], nil
	case bgp.AFIIPv6:
		if len(rest) < 32 {
			return nil, ErrShortRecord
		}
		var p, l [16]byte
		copy(p[:], rest[0:16])
		copy(l[:], rest[16:32])
		m.PeerIP, m.LocalIP = netip.AddrFrom16(p), netip.AddrFrom16(l)
		return rest[32:], nil
	default:
		return nil, fmt.Errorf("mrt: unknown AFI %d", afi)
	}
}

func (p *PeerIndexTable) appendTo(b []byte) ([]byte, error) {
	if !p.CollectorID.Is4() {
		return nil, fmt.Errorf("mrt: collector ID must be IPv4")
	}
	cid := p.CollectorID.As4()
	b = append(b, cid[:]...)
	if len(p.ViewName) > 0xffff {
		return nil, fmt.Errorf("mrt: view name too long")
	}
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.ViewName)))
	b = append(b, p.ViewName...)
	b = binary.BigEndian.AppendUint16(b, uint16(len(p.Peers)))
	for _, peer := range p.Peers {
		// Peer type: bit 0 = IPv6 address, bit 1 = 4-byte AS (always set).
		v6 := peer.IP.Is6() && !peer.IP.Is4In6()
		ptype := byte(0x02)
		if v6 {
			ptype |= 0x01
		}
		b = append(b, ptype)
		if !peer.BGPID.Is4() {
			return nil, fmt.Errorf("mrt: peer BGP ID must be IPv4")
		}
		bid := peer.BGPID.As4()
		b = append(b, bid[:]...)
		if v6 {
			ip := peer.IP.As16()
			b = append(b, ip[:]...)
		} else {
			ip := peer.IP.As4()
			b = append(b, ip[:]...)
		}
		b = binary.BigEndian.AppendUint32(b, peer.AS)
	}
	return b, nil
}

func parsePeerIndexTable(src []byte) (*PeerIndexTable, error) {
	if len(src) < 8 {
		return nil, ErrShortRecord
	}
	var cid [4]byte
	copy(cid[:], src[0:4])
	t := &PeerIndexTable{CollectorID: netip.AddrFrom4(cid)}
	nameLen := int(binary.BigEndian.Uint16(src[4:6]))
	if len(src) < 6+nameLen+2 {
		return nil, ErrShortRecord
	}
	t.ViewName = string(src[6 : 6+nameLen])
	src = src[6+nameLen:]
	count := int(binary.BigEndian.Uint16(src[:2]))
	src = src[2:]
	for i := 0; i < count; i++ {
		if len(src) < 5 {
			return nil, ErrShortRecord
		}
		ptype := src[0]
		var bid [4]byte
		copy(bid[:], src[1:5])
		peer := Peer{BGPID: netip.AddrFrom4(bid)}
		src = src[5:]
		if ptype&0x01 != 0 {
			if len(src) < 16 {
				return nil, ErrShortRecord
			}
			var ip [16]byte
			copy(ip[:], src[:16])
			peer.IP = netip.AddrFrom16(ip)
			src = src[16:]
		} else {
			if len(src) < 4 {
				return nil, ErrShortRecord
			}
			var ip [4]byte
			copy(ip[:], src[:4])
			peer.IP = netip.AddrFrom4(ip)
			src = src[4:]
		}
		if ptype&0x02 != 0 {
			if len(src) < 4 {
				return nil, ErrShortRecord
			}
			peer.AS = binary.BigEndian.Uint32(src[:4])
			src = src[4:]
		} else {
			if len(src) < 2 {
				return nil, ErrShortRecord
			}
			peer.AS = uint32(binary.BigEndian.Uint16(src[:2]))
			src = src[2:]
		}
		t.Peers = append(t.Peers, peer)
	}
	return t, nil
}

func (r *RIBEntrySet) appendTo(b []byte, v6 bool) ([]byte, error) {
	b = binary.BigEndian.AppendUint32(b, r.Sequence)
	b = appendAddr(b, r.Prefix)
	b = binary.BigEndian.AppendUint16(b, uint16(len(r.Entries)))
	for i := range r.Entries {
		e := &r.Entries[i]
		b = binary.BigEndian.AppendUint16(b, e.PeerIndex)
		b = binary.BigEndian.AppendUint32(b, uint32(e.OriginatedTime.Unix()))
		// Attribute length is back-patched around the in-place encode.
		lenAt := len(b)
		b = append(b, 0, 0)
		var err error
		b, err = e.Attrs.AppendAttributes(b)
		if err != nil {
			return nil, err
		}
		alen := len(b) - lenAt - 2
		if alen > 0xffff {
			return nil, fmt.Errorf("mrt: RIB entry attributes exceed %d bytes", 0xffff)
		}
		binary.BigEndian.PutUint16(b[lenAt:], uint16(alen))
	}
	_ = v6
	return b, nil
}

func parseRIBEntrySet(src []byte, v6 bool) (*RIBEntrySet, error) {
	if len(src) < 4 {
		return nil, ErrShortRecord
	}
	r := &RIBEntrySet{Sequence: binary.BigEndian.Uint32(src[:4])}
	src = src[4:]
	p, n, err := parseAddr(src, v6)
	if err != nil {
		return nil, err
	}
	r.Prefix = p
	src = src[n:]
	if len(src) < 2 {
		return nil, ErrShortRecord
	}
	count := int(binary.BigEndian.Uint16(src[:2]))
	src = src[2:]
	for i := 0; i < count; i++ {
		if len(src) < 8 {
			return nil, ErrShortRecord
		}
		e := RIBEntry{
			PeerIndex:      binary.BigEndian.Uint16(src[:2]),
			OriginatedTime: time.Unix(int64(binary.BigEndian.Uint32(src[2:6])), 0).UTC(),
		}
		alen := int(binary.BigEndian.Uint16(src[6:8]))
		if len(src) < 8+alen {
			return nil, ErrShortRecord
		}
		if err := e.Attrs.UnmarshalAttributes(src[8 : 8+alen]); err != nil {
			return nil, err
		}
		src = src[8+alen:]
		r.Entries = append(r.Entries, e)
	}
	return r, nil
}
