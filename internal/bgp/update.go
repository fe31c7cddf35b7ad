package bgp

import (
	"encoding/binary"
	"fmt"
	"net/netip"
)

// Path attribute type codes.
const (
	AttrOrigin          = 1
	AttrASPath          = 2
	AttrNextHop         = 3
	AttrMED             = 4
	AttrLocalPref       = 5
	AttrAtomicAggregate = 6
	AttrAggregator      = 7
	AttrCommunities     = 8
	AttrMPReachNLRI     = 14
	AttrMPUnreachNLRI   = 15
)

// Attribute flag bits.
const (
	flagOptional   = 0x80
	flagTransitive = 0x40
	flagExtLen     = 0x10
)

// ORIGIN values.
const (
	OriginIGP        = 0
	OriginEGP        = 1
	OriginIncomplete = 2
)

// AS_PATH segment types.
const (
	segSet      = 1
	segSequence = 2
)

// maxSegmentASNs is the AS_PATH segment capacity: the member count is a
// single octet (RFC 4271 §4.3), so longer paths span multiple segments.
const maxSegmentASNs = 255

// Community is a standard RFC 1997 community value.
type Community uint32

// String renders the community in the conventional ASN:value form.
func (c Community) String() string {
	return fmt.Sprintf("%d:%d", uint32(c)>>16, uint32(c)&0xffff)
}

// Update is the BGP UPDATE message. The codec always encodes AS_PATH with
// 4-octet ASNs (both ends of every session this package establishes
// advertise RFC 6793 support). IPv6 NLRI travel in MP_REACH/MP_UNREACH.
//
// Updates decoded through UnmarshalUpdate/ReadMessageInto keep AS_PATH and
// COMMUNITIES as validated raw bytes and materialize them only when Path or
// Comms is called, so stages that never look at them never pay the decode.
// Code that reads a decoded update must therefore go through the accessors;
// the exported fields remain authoritative for hand-constructed updates.
type Update struct {
	Withdrawn   []netip.Prefix // IPv4 withdrawn routes
	Origin      uint8
	ASPath      []uint32 // flattened AS_SEQUENCE
	NextHop     netip.Addr
	MED         uint32
	HasMED      bool
	LocalPref   uint32
	HasLocal    bool
	Communities []Community
	NLRI        []netip.Prefix // IPv4 announced routes

	V6NLRI      []netip.Prefix // IPv6 announced routes (MP_REACH_NLRI)
	V6NextHop   netip.Addr
	V6LinkLocal netip.Addr     // optional link-local next hop (RFC 2545 32-byte form)
	V6Withdrawn []netip.Prefix // IPv6 withdrawn routes (MP_UNREACH_NLRI)

	// Lazy-decode state: raw attribute values copied out of the wire
	// buffer (update-owned, reused across Reset) awaiting materialization.
	rawPath   []byte
	rawComms  []byte
	pathDone  bool
	commsDone bool
}

// Type implements Message.
func (*Update) Type() uint8 { return TypeUpdate }

// Reset clears u for reuse, keeping all internal storage (prefix slices,
// path/community scratch) so a decode loop reaches zero steady-state
// allocations.
func (u *Update) Reset() {
	u.Withdrawn = u.Withdrawn[:0]
	u.Origin = 0
	u.ASPath = u.ASPath[:0]
	u.NextHop = netip.Addr{}
	u.MED, u.HasMED = 0, false
	u.LocalPref, u.HasLocal = 0, false
	u.Communities = u.Communities[:0]
	u.NLRI = u.NLRI[:0]
	u.V6NLRI = u.V6NLRI[:0]
	u.V6NextHop = netip.Addr{}
	u.V6LinkLocal = netip.Addr{}
	u.V6Withdrawn = u.V6Withdrawn[:0]
	u.rawPath = u.rawPath[:0]
	u.rawComms = u.rawComms[:0]
	u.pathDone, u.commsDone = false, false
}

// Path returns the flattened AS path. For lazily decoded updates the raw
// AS_PATH attribute (already structurally validated during decode) is
// materialized into reused storage on first call.
func (u *Update) Path() []uint32 {
	if !u.pathDone && len(u.rawPath) > 0 {
		u.ASPath = appendASPath(u.ASPath[:0], u.rawPath)
		u.pathDone = true
	}
	return u.ASPath
}

// Comms returns the standard communities, materializing the raw
// COMMUNITIES attribute on first call for lazily decoded updates.
func (u *Update) Comms() []Community {
	if !u.commsDone && len(u.rawComms) > 0 {
		u.Communities = u.Communities[:0]
		for i := 0; i+4 <= len(u.rawComms); i += 4 {
			u.Communities = append(u.Communities, Community(binary.BigEndian.Uint32(u.rawComms[i:i+4])))
		}
		u.commsDone = true
	}
	return u.Communities
}

// appendAttrHeader appends one path-attribute header, choosing extended
// length when the value exceeds 255 bytes. The caller appends exactly n
// value bytes afterwards.
func appendAttrHeader(dst []byte, flags, code uint8, n int) []byte {
	if n > 255 {
		dst = append(dst, flags|flagExtLen, code)
		return binary.BigEndian.AppendUint16(dst, uint16(n))
	}
	return append(dst, flags, code, byte(n))
}

// asPathValueLen returns the encoded size of the AS_PATH attribute value
// for path: 4 bytes per ASN plus a 2-byte segment header per 255 ASNs.
func asPathValueLen(path []uint32) int {
	if len(path) == 0 {
		return 0
	}
	segs := (len(path) + maxSegmentASNs - 1) / maxSegmentASNs
	return 4*len(path) + 2*segs
}

// appendASPathValue appends the AS_PATH attribute value, splitting the
// path into AS_SEQUENCE segments of at most 255 ASNs each so long paths
// never truncate the per-segment count octet.
func appendASPathValue(dst []byte, path []uint32) []byte {
	for len(path) > 0 {
		n := len(path)
		if n > maxSegmentASNs {
			n = maxSegmentASNs
		}
		dst = append(dst, segSequence, byte(n))
		for _, as := range path[:n] {
			dst = binary.BigEndian.AppendUint32(dst, as)
		}
		path = path[n:]
	}
	return dst
}

// prefixesWireLen returns the encoded NLRI size of ps.
func prefixesWireLen(ps []netip.Prefix) int {
	n := 0
	for _, p := range ps {
		n += 1 + (p.Bits()+7)/8
	}
	return n
}

func (u *Update) marshalBody(dst []byte) ([]byte, error) {
	// Withdrawn routes; the 2-byte length is back-patched once known.
	wdAt := len(dst)
	dst = append(dst, 0, 0)
	for _, p := range u.Withdrawn {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("%w: IPv6 prefix in v4 withdrawn set", ErrBadPrefix)
		}
		dst = appendPrefix(dst, p)
	}
	binary.BigEndian.PutUint16(dst[wdAt:], uint16(len(dst)-wdAt-2))

	// Path attributes, appended in place with a back-patched total length.
	attrAt := len(dst)
	dst = append(dst, 0, 0)
	hasReach := len(u.NLRI) > 0 || len(u.V6NLRI) > 0
	if hasReach {
		dst = appendAttrHeader(dst, flagTransitive, AttrOrigin, 1)
		dst = append(dst, u.Origin)
		path := u.Path()
		dst = appendAttrHeader(dst, flagTransitive, AttrASPath, asPathValueLen(path))
		dst = appendASPathValue(dst, path)
	}
	if len(u.NLRI) > 0 {
		if !u.NextHop.Is4() {
			return nil, fmt.Errorf("%w: v4 NLRI requires IPv4 next hop", ErrBadAttribute)
		}
		nh := u.NextHop.As4()
		dst = appendAttrHeader(dst, flagTransitive, AttrNextHop, 4)
		dst = append(dst, nh[:]...)
	}
	if u.HasMED {
		dst = appendAttrHeader(dst, flagOptional, AttrMED, 4)
		dst = binary.BigEndian.AppendUint32(dst, u.MED)
	}
	if u.HasLocal {
		dst = appendAttrHeader(dst, flagTransitive, AttrLocalPref, 4)
		dst = binary.BigEndian.AppendUint32(dst, u.LocalPref)
	}
	if comms := u.Comms(); len(comms) > 0 {
		dst = appendAttrHeader(dst, flagOptional|flagTransitive, AttrCommunities, 4*len(comms))
		for _, c := range comms {
			dst = binary.BigEndian.AppendUint32(dst, uint32(c))
		}
	}
	if len(u.V6NLRI) > 0 {
		// Any 16-byte address encodes, IPv4-mapped ones included: the
		// decoder accepts them (6PE next hops look like that), and a
		// decoded update must always re-marshal.
		if !u.V6NextHop.Is6() {
			return nil, fmt.Errorf("%w: v6 NLRI requires IPv6 next hop", ErrBadAttribute)
		}
		nhLen := 16
		if u.V6LinkLocal.IsValid() {
			if !u.V6LinkLocal.Is6() {
				return nil, fmt.Errorf("%w: link-local next hop must be IPv6", ErrBadAttribute)
			}
			nhLen = 32
		}
		dst = appendAttrHeader(dst, flagOptional, AttrMPReachNLRI, 4+nhLen+1+prefixesWireLen(u.V6NLRI))
		dst = append(dst, 0, AFIIPv6, SAFIUnicast, byte(nhLen))
		nh := u.V6NextHop.As16()
		dst = append(dst, nh[:]...)
		if nhLen == 32 {
			ll := u.V6LinkLocal.As16()
			dst = append(dst, ll[:]...)
		}
		dst = append(dst, 0) // reserved SNPA count
		for _, p := range u.V6NLRI {
			dst = appendPrefix(dst, p)
		}
	}
	if len(u.V6Withdrawn) > 0 {
		dst = appendAttrHeader(dst, flagOptional, AttrMPUnreachNLRI, 3+prefixesWireLen(u.V6Withdrawn))
		dst = append(dst, 0, AFIIPv6, SAFIUnicast)
		for _, p := range u.V6Withdrawn {
			dst = appendPrefix(dst, p)
		}
	}
	binary.BigEndian.PutUint16(dst[attrAt:], uint16(len(dst)-attrAt-2))

	// NLRI.
	for _, p := range u.NLRI {
		if !p.Addr().Is4() {
			return nil, fmt.Errorf("%w: IPv6 prefix in v4 NLRI", ErrBadPrefix)
		}
		dst = appendPrefix(dst, p)
	}
	return dst, nil
}

func (u *Update) unmarshalBody(src []byte) error {
	*u = Update{}
	return u.decode(src, false)
}

// decode parses an UPDATE body into u. In lazy mode AS_PATH and
// COMMUNITIES are validated and copied into update-owned scratch for the
// accessors to materialize on demand; prefix slices are appended in place
// so a Reset update reuses its storage. Eager mode (the legacy
// Unmarshal/UnmarshalAttributes path) decodes everything immediately and
// leaves the lazy state empty.
func (u *Update) decode(src []byte, lazy bool) error {
	if len(src) < 4 {
		return ErrShortMessage
	}
	wdLen := int(binary.BigEndian.Uint16(src[:2]))
	if len(src) < 2+wdLen+2 {
		return ErrShortMessage
	}
	wd, err := parsePrefixesInto(u.Withdrawn, src[2:2+wdLen], false)
	if err != nil {
		return err
	}
	u.Withdrawn = wd
	src = src[2+wdLen:]
	attrLen := int(binary.BigEndian.Uint16(src[:2]))
	if len(src) < 2+attrLen {
		return ErrShortMessage
	}
	if err := u.parseAttrs(src[2:2+attrLen], lazy); err != nil {
		return err
	}
	nlri, err := parsePrefixesInto(u.NLRI, src[2+attrLen:], false)
	if err != nil {
		return err
	}
	u.NLRI = nlri
	// NEXT_HOP is well-known mandatory once NLRI is present (RFC 4271
	// §6.3); rejecting its absence here keeps decode/encode symmetric —
	// everything that decodes must re-encode.
	if len(u.NLRI) > 0 && !u.NextHop.Is4() {
		return fmt.Errorf("%w: v4 NLRI without IPv4 NEXT_HOP", ErrBadAttribute)
	}
	return nil
}

func (u *Update) parseAttrs(src []byte, lazy bool) error {
	for len(src) > 0 {
		if len(src) < 3 {
			return ErrBadAttribute
		}
		flags, code := src[0], src[1]
		var alen, hdr int
		if flags&flagExtLen != 0 {
			if len(src) < 4 {
				return ErrBadAttribute
			}
			alen, hdr = int(binary.BigEndian.Uint16(src[2:4])), 4
		} else {
			alen, hdr = int(src[2]), 3
		}
		if len(src) < hdr+alen {
			return ErrBadAttribute
		}
		val := src[hdr : hdr+alen]
		src = src[hdr+alen:]
		switch code {
		case AttrOrigin:
			if alen != 1 {
				return fmt.Errorf("%w: ORIGIN length %d", ErrBadAttribute, alen)
			}
			u.Origin = val[0]
		case AttrASPath:
			if err := validateASPath(val); err != nil {
				return err
			}
			if lazy {
				u.rawPath = append(u.rawPath[:0], val...)
				u.pathDone = false
			} else {
				u.ASPath = appendASPath(u.ASPath[:0], val)
			}
		case AttrNextHop:
			if alen != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadAttribute, alen)
			}
			var a [4]byte
			copy(a[:], val)
			u.NextHop = netip.AddrFrom4(a)
		case AttrMED:
			if alen != 4 {
				return fmt.Errorf("%w: MED length %d", ErrBadAttribute, alen)
			}
			u.MED, u.HasMED = binary.BigEndian.Uint32(val), true
		case AttrLocalPref:
			if alen != 4 {
				return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadAttribute, alen)
			}
			u.LocalPref, u.HasLocal = binary.BigEndian.Uint32(val), true
		case AttrCommunities:
			if alen%4 != 0 {
				return fmt.Errorf("%w: COMMUNITIES length %d", ErrBadAttribute, alen)
			}
			// Duplicated attributes are last-wins (as for AS_PATH), so
			// the lazy and eager paths agree on malformed duplicates.
			if lazy {
				u.rawComms = append(u.rawComms[:0], val...)
				u.commsDone = false
			} else {
				u.Communities = u.Communities[:0]
				for i := 0; i < alen; i += 4 {
					u.Communities = append(u.Communities, Community(binary.BigEndian.Uint32(val[i:i+4])))
				}
			}
		case AttrMPReachNLRI:
			if err := u.parseMPReach(val); err != nil {
				return err
			}
		case AttrMPUnreachNLRI:
			if err := u.parseMPUnreach(val); err != nil {
				return err
			}
		default:
			// Unknown attributes are tolerated (a collector must not
			// reject updates it merely stores).
		}
	}
	return nil
}

// validateASPath structurally checks an AS_PATH attribute value (4-octet
// ASNs assumed) without allocating, so lazy decode can defer
// materialization while still rejecting malformed paths up front.
func validateASPath(val []byte) error {
	for len(val) > 0 {
		if len(val) < 2 {
			return fmt.Errorf("%w: truncated AS_PATH segment", ErrBadAttribute)
		}
		segType, n := val[0], int(val[1])
		if segType != segSet && segType != segSequence {
			return fmt.Errorf("%w: AS_PATH segment type %d", ErrBadAttribute, segType)
		}
		need := 2 + 4*n
		if len(val) < need {
			return fmt.Errorf("%w: truncated AS_PATH", ErrBadAttribute)
		}
		val = val[need:]
	}
	return nil
}

// appendASPath flattens an already-validated AS_PATH attribute value into
// dst. AS_SET members are appended in order (collectors treat sets as
// opaque path material).
func appendASPath(dst []uint32, val []byte) []uint32 {
	for len(val) >= 2 {
		n := int(val[1])
		for i := 0; i < n; i++ {
			dst = append(dst, binary.BigEndian.Uint32(val[2+4*i:6+4*i]))
		}
		val = val[2+4*n:]
	}
	return dst
}

func (u *Update) parseMPReach(val []byte) error {
	if len(val) < 5 {
		return fmt.Errorf("%w: short MP_REACH_NLRI", ErrBadAttribute)
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	nhLen := int(val[3])
	if afi != AFIIPv6 || safi != SAFIUnicast {
		return nil // other families ignored
	}
	if len(val) < 4+nhLen+1 {
		return fmt.Errorf("%w: short MP_REACH_NLRI next hop", ErrBadAttribute)
	}
	switch nhLen {
	case 16:
		var a [16]byte
		copy(a[:], val[4:20])
		u.V6NextHop = netip.AddrFrom16(a)
	case 32:
		// RFC 2545 §3: global next hop followed by a link-local one.
		var a, ll [16]byte
		copy(a[:], val[4:20])
		copy(ll[:], val[20:36])
		u.V6NextHop = netip.AddrFrom16(a)
		u.V6LinkLocal = netip.AddrFrom16(ll)
	default:
		// Any other length leaves no usable IPv6 next hop; rejecting here
		// keeps decode→encode symmetric (a decoded update always
		// re-marshals).
		return fmt.Errorf("%w: MP_REACH_NLRI next hop length %d", ErrBadAttribute, nhLen)
	}
	rest := val[4+nhLen:]
	if len(rest) < 1 {
		return fmt.Errorf("%w: missing SNPA count", ErrBadAttribute)
	}
	rest = rest[1:] // reserved
	nlri, err := parsePrefixesInto(u.V6NLRI, rest, true)
	if err != nil {
		return err
	}
	u.V6NLRI = nlri
	return nil
}

func (u *Update) parseMPUnreach(val []byte) error {
	if len(val) < 3 {
		return fmt.Errorf("%w: short MP_UNREACH_NLRI", ErrBadAttribute)
	}
	afi := binary.BigEndian.Uint16(val[:2])
	safi := val[2]
	if afi != AFIIPv6 || safi != SAFIUnicast {
		return nil
	}
	wd, err := parsePrefixesInto(u.V6Withdrawn, val[3:], true)
	if err != nil {
		return err
	}
	u.V6Withdrawn = wd
	return nil
}
