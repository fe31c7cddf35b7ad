package bgp

import "encoding/binary"

// AppendAttributes appends only the path-attribute portion of the update
// to dst, as used by MRT TABLE_DUMP_V2 RIB entries (RFC 6396 §4.3.4).
// ORIGIN and AS_PATH are always emitted; the NLRI and withdrawn-route
// sections are the caller's concern.
func (u *Update) AppendAttributes(dst []byte) ([]byte, error) {
	dst = appendAttrHeader(dst, flagTransitive, AttrOrigin, 1)
	dst = append(dst, u.Origin)
	path := u.Path()
	dst = appendAttrHeader(dst, flagTransitive, AttrASPath, asPathValueLen(path))
	dst = appendASPathValue(dst, path)
	if u.NextHop.Is4() {
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
	return dst, nil
}

// UnmarshalAttributes decodes a bare path-attribute byte string into u,
// the inverse of AppendAttributes.
func (u *Update) UnmarshalAttributes(b []byte) error {
	*u = Update{}
	return u.parseAttrs(b, false)
}
