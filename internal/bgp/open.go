package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Capability codes used by this implementation (RFC 5492 registry).
const (
	CapMultiprotocol = 1  // RFC 4760
	CapRouteRefresh  = 2  // RFC 2918
	CapFourOctetAS   = 65 // RFC 6793
)

// AFI/SAFI pairs for the multiprotocol capability.
const (
	AFIIPv4 = 1
	AFIIPv6 = 2

	SAFIUnicast = 1
)

// Capability is one capability advertisement inside an OPEN optional
// parameter (RFC 5492).
type Capability struct {
	Code  uint8
	Value []byte
}

// Open is the BGP OPEN message (RFC 4271 §4.2).
type Open struct {
	VersionNum   uint8
	AS           uint32 // sender ASN; encoded as AS_TRANS in the 2-byte field when > 65535
	HoldTime     uint16
	RouterID     netip.Addr // must be IPv4
	Capabilities []Capability
}

// ASTrans is the 2-octet placeholder ASN used when the real ASN needs four
// octets (RFC 6793).
const ASTrans = 23456

// Type implements Message.
func (*Open) Type() uint8 { return TypeOpen }

// NewOpen builds an OPEN advertising 4-octet-AS and IPv4+IPv6 unicast
// multiprotocol capabilities.
func NewOpen(as uint32, holdTime uint16, routerID netip.Addr) *Open {
	fourOctet := make([]byte, 4)
	binary.BigEndian.PutUint32(fourOctet, as)
	return &Open{
		VersionNum: Version,
		AS:         as,
		HoldTime:   holdTime,
		RouterID:   routerID,
		Capabilities: []Capability{
			{Code: CapMultiprotocol, Value: []byte{0, AFIIPv4, 0, SAFIUnicast}},
			{Code: CapMultiprotocol, Value: []byte{0, AFIIPv6, 0, SAFIUnicast}},
			{Code: CapFourOctetAS, Value: fourOctet},
		},
	}
}

func (o *Open) marshalBody(dst []byte) ([]byte, error) {
	if !o.RouterID.Is4() {
		return nil, fmt.Errorf("%w: router ID must be IPv4", ErrBadOpen)
	}
	dst = append(dst, o.VersionNum)
	as2 := o.AS
	if as2 > 0xffff {
		as2 = ASTrans
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(as2))
	dst = binary.BigEndian.AppendUint16(dst, o.HoldTime)
	rid := o.RouterID.As4()
	dst = append(dst, rid[:]...)

	// Optional parameters: a single type-2 (Capabilities) parameter
	// carrying all capabilities.
	var caps []byte
	for _, c := range o.Capabilities {
		if len(c.Value) > 255 {
			return nil, fmt.Errorf("%w: capability value too long", ErrBadOpen)
		}
		caps = append(caps, c.Code, byte(len(c.Value)))
		caps = append(caps, c.Value...)
	}
	if len(caps) == 0 {
		dst = append(dst, 0) // no optional parameters
		return dst, nil
	}
	if len(caps) > 253 {
		return nil, fmt.Errorf("%w: capabilities too long", ErrBadOpen)
	}
	dst = append(dst, byte(len(caps)+2)) // opt param total length
	dst = append(dst, 2, byte(len(caps)))
	dst = append(dst, caps...)
	return dst, nil
}

func (o *Open) unmarshalBody(src []byte) error {
	if len(src) < 10 {
		return ErrBadOpen
	}
	o.VersionNum = src[0]
	o.AS = uint32(binary.BigEndian.Uint16(src[1:3]))
	o.HoldTime = binary.BigEndian.Uint16(src[3:5])
	var rid [4]byte
	copy(rid[:], src[5:9])
	o.RouterID = netip.AddrFrom4(rid)
	optLen := int(src[9])
	opts := src[10:]
	if len(opts) != optLen {
		return fmt.Errorf("%w: optional parameter length mismatch", ErrBadOpen)
	}
	o.Capabilities = nil
	for len(opts) > 0 {
		if len(opts) < 2 {
			return ErrBadOpen
		}
		ptype, plen := opts[0], int(opts[1])
		if len(opts) < 2+plen {
			return ErrBadOpen
		}
		val := opts[2 : 2+plen]
		opts = opts[2+plen:]
		if ptype != 2 { // ignore non-capability parameters
			continue
		}
		for len(val) > 0 {
			if len(val) < 2 {
				return ErrBadOpen
			}
			code, clen := val[0], int(val[1])
			if len(val) < 2+clen {
				return ErrBadOpen
			}
			cv := make([]byte, clen)
			copy(cv, val[2:2+clen])
			o.Capabilities = append(o.Capabilities, Capability{Code: code, Value: cv})
			val = val[2+clen:]
		}
	}
	// Recover the 4-octet ASN if advertised.
	for _, c := range o.Capabilities {
		if c.Code == CapFourOctetAS && len(c.Value) == 4 {
			o.AS = binary.BigEndian.Uint32(c.Value)
		}
	}
	return nil
}

// Keepalive is the BGP KEEPALIVE message: a bare header.
type Keepalive struct{}

// Type implements Message.
func (*Keepalive) Type() uint8 { return TypeKeepalive }

func (*Keepalive) marshalBody(dst []byte) ([]byte, error) { return dst, nil }

func (*Keepalive) unmarshalBody(src []byte) error {
	if len(src) != 0 {
		return ErrBadLength
	}
	return nil
}

// Notification is the BGP NOTIFICATION message (RFC 4271 §4.5).
type Notification struct {
	Code    uint8
	Subcode uint8
	Data    []byte
}

// Notification error codes (RFC 4271 §6).
const (
	NotifMessageHeaderError = 1
	NotifOpenError          = 2
	NotifUpdateError        = 3
	NotifHoldTimerExpired   = 4
	NotifFSMError           = 5
	NotifCease              = 6
)

// Type implements Message.
func (*Notification) Type() uint8 { return TypeNotification }

func (n *Notification) marshalBody(dst []byte) ([]byte, error) {
	dst = append(dst, n.Code, n.Subcode)
	return append(dst, n.Data...), nil
}

func (n *Notification) unmarshalBody(src []byte) error {
	if len(src) < 2 {
		return ErrShortMessage
	}
	n.Code, n.Subcode = src[0], src[1]
	n.Data = append([]byte(nil), src[2:]...)
	return nil
}

// Error makes a Notification usable as a Go error when a session is torn
// down by the remote peer.
func (n *Notification) Error() string {
	return fmt.Sprintf("bgp: notification code=%d subcode=%d", n.Code, n.Subcode)
}
