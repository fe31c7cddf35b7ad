package bgp

import (
	"net/netip"
	"reflect"
	"testing"
)

func TestMarshalAttributesAlwaysEmitsOriginAndPath(t *testing.T) {
	u := Update{Origin: OriginEGP, ASPath: []uint32{1, 400001}}
	b, err := u.AppendAttributes(nil)
	if err != nil {
		t.Fatalf("AppendAttributes: %v", err)
	}
	var got Update
	if err := got.UnmarshalAttributes(b); err != nil {
		t.Fatalf("UnmarshalAttributes: %v", err)
	}
	if got.Origin != OriginEGP || !reflect.DeepEqual(got.ASPath, u.ASPath) {
		t.Errorf("round trip: %+v", got)
	}
}

func TestMarshalAttributesOptional(t *testing.T) {
	u := Update{
		Origin:      OriginIGP,
		ASPath:      []uint32{65001},
		NextHop:     netip.MustParseAddr("10.0.0.1"),
		MED:         7,
		HasMED:      true,
		LocalPref:   300,
		HasLocal:    true,
		Communities: []Community{1, 2, 3},
	}
	b, err := u.AppendAttributes(nil)
	if err != nil {
		t.Fatalf("AppendAttributes: %v", err)
	}
	var got Update
	if err := got.UnmarshalAttributes(b); err != nil {
		t.Fatalf("UnmarshalAttributes: %v", err)
	}
	if !reflect.DeepEqual(got, u) {
		t.Errorf("round trip:\n got  %+v\n want %+v", got, u)
	}
}

func TestUnmarshalAttributesGarbage(t *testing.T) {
	var u Update
	if err := u.UnmarshalAttributes([]byte{0xff}); err == nil {
		t.Error("garbage attributes accepted")
	}
}

func TestTypeName(t *testing.T) {
	cases := map[uint8]string{
		TypeOpen: "OPEN", TypeUpdate: "UPDATE",
		TypeNotification: "NOTIFICATION", TypeKeepalive: "KEEPALIVE",
	}
	for code, want := range cases {
		if got := typeName(code); got != want {
			t.Errorf("typeName(%d) = %q", code, got)
		}
	}
	if got := typeName(99); got != "TYPE(99)" {
		t.Errorf("typeName(99) = %q", got)
	}
}

func TestNotificationError(t *testing.T) {
	n := &Notification{Code: NotifCease, Subcode: 2}
	if n.Error() == "" {
		t.Error("empty error string")
	}
	var err error = n // Notification must satisfy error
	_ = err
}
