package stream

import (
	"net/netip"
	"net/url"
	"strings"
	"testing"
	"time"

	"repro/internal/update"
)

func upd(vp string, prefix string, path []uint32, comms []uint32, withdraw bool) *update.Update {
	return &update.Update{
		VP:       vp,
		Time:     time.Unix(1693526400, 0).UTC(),
		Prefix:   netip.MustParsePrefix(prefix),
		Path:     path,
		Comms:    comms,
		Withdraw: withdraw,
	}
}

func pathStrOf(u *update.Update) func() string {
	return (&Event{U: u}).PathString
}

// The filter fixtures: three updates and the expressions judged against
// them. FuzzParseFilter seeds its corpus from the same table.
var (
	fxAnnounce = upd("vp65001", "203.0.113.0/24", []uint32{65001, 6939, 64999}, []uint32{65001<<16 | 100}, false)
	fxWithdraw = upd("vp65002", "198.51.100.0/24", nil, nil, true)
	fxV6       = upd("vp65001", "2001:db8:1::/48", []uint32{65001, 64999}, nil, false)

	filterCases = []struct {
		expr string
		u    *update.Update
		want bool
	}{
		{"", fxAnnounce, true},
		{"", fxWithdraw, true},
		{"prefix=203.0.113.0/24", fxAnnounce, true},
		{"prefix=203.0.113.0/25", fxAnnounce, false},
		{"prefix=198.51.100.0/24 prefix=203.0.113.0/24", fxAnnounce, true}, // repeat = OR
		{"within=203.0.113.0/24", fxAnnounce, true},
		{"within=203.0.0.0/8", fxAnnounce, true},
		{"within=203.0.113.0/25", fxAnnounce, false}, // update is wider than the bound
		{"within=2001:db8::/32", fxV6, true},
		{"within=2001:db8::/32", fxAnnounce, false},
		{"vp=vp65001", fxAnnounce, true},
		{"vp=vp65002", fxAnnounce, false},
		{"vp=vp65002 vp=vp65001", fxAnnounce, true},
		{"origin=64999", fxAnnounce, true},
		{"origin=6939", fxAnnounce, false}, // transit, not origin
		{"community=65001:100", fxAnnounce, true},
		{"community=65001:200", fxAnnounce, false},
		{"community=65001:100", fxWithdraw, false}, // withdrawal carries none
		{`path="(^|\s)6939(\s|$)"`, fxAnnounce, true},
		{`path="^65001"`, fxAnnounce, true},
		{`path="3356"`, fxAnnounce, false},
		{`path="6939"`, fxWithdraw, false}, // empty path never matches a regex requiring content
		{"type=announce", fxAnnounce, true},
		{"type=announce", fxWithdraw, false},
		{"type=withdraw", fxWithdraw, true},
		{"type=withdraw", fxAnnounce, false},
		{"within=203.0.113.0/24 vp=vp65001 type=announce", fxAnnounce, true},
		{"within=203.0.113.0/24 vp=vp65002 type=announce", fxAnnounce, false}, // AND across keys
	}

	badFilterExprs = []string{
		"prefix=not-a-prefix",
		"bogus=1",
		"prefix",          // no value
		"origin=abc",      // not a number
		"community=1:2:3", // malformed
		"type=sideways",
		`path="(unclosed"`, // bad regex
		`path="a" path="b"`,
		`vp="unterminated`,
	}
)

func TestFilterSemantics(t *testing.T) {
	for _, tc := range filterCases {
		f, err := ParseFilter(tc.expr)
		if err != nil {
			t.Fatalf("ParseFilter(%q): %v", tc.expr, err)
		}
		if got := f.Match(tc.u, pathStrOf(tc.u)); got != tc.want {
			t.Errorf("filter %q on %s/%s: got %v, want %v", tc.expr, tc.u.VP, tc.u.Prefix, got, tc.want)
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	for _, expr := range badFilterExprs {
		if _, err := ParseFilter(expr); err == nil {
			t.Errorf("ParseFilter(%q): expected error", expr)
		}
	}
}

func TestFilterQuotedValues(t *testing.T) {
	f, err := ParseFilter(`path="6939 64999$" vp=vp65001`)
	if err != nil {
		t.Fatalf("ParseFilter: %v", err)
	}
	u := upd("vp65001", "203.0.113.0/24", []uint32{65001, 6939, 64999}, nil, false)
	if !f.Match(u, pathStrOf(u)) {
		t.Fatalf("quoted path regex with space did not match")
	}
}

func TestFilterFromValues(t *testing.T) {
	v := url.Values{}
	v.Set("filter", "type=announce")
	v.Add("within", "203.0.113.0/24")
	v.Add("vp", "vp65001")
	v.Add("vp", "vp65002")
	f, err := FilterFromValues(v)
	if err != nil {
		t.Fatalf("FilterFromValues: %v", err)
	}
	hit := upd("vp65002", "203.0.113.128/25", []uint32{65002, 1}, nil, false)
	miss := upd("vp65003", "203.0.113.128/25", []uint32{65003, 1}, nil, false)
	if !f.Match(hit, pathStrOf(hit)) {
		t.Fatalf("merged filter rejected a matching update")
	}
	if f.Match(miss, pathStrOf(miss)) {
		t.Fatalf("merged filter accepted the wrong VP")
	}
	if _, err := FilterFromValues(url.Values{"prefix": []string{"zzz"}}); err == nil {
		t.Fatalf("bad query prefix: expected error")
	}
	// Query parameters reach values the expression grammar cannot spell;
	// they stay accepted.
	for _, v := range []url.Values{{"path": {`a"b`}}, {"vp": {`say "hi"`}}, {"vp": {""}}} {
		if _, err := FilterFromValues(v); err != nil {
			t.Errorf("FilterFromValues(%v): %v", v, err)
		}
	}
}

// FuzzParseFilter: gill-tail and curl forward user text into this
// grammar, both as a filter= expression and as direct query parameters.
// Whatever is thrown at either form must not panic, and every accepted
// filter the expression grammar can spell must have a String() that parses
// back to a filter judging the fixtures the same way. Query parameters
// reach two values the grammar cannot — an empty one, and one containing a
// double quote (the tokenizer has no escape); those stay accepted there
// and are only checked for not panicking.
func FuzzParseFilter(f *testing.F) {
	for _, tc := range filterCases {
		f.Add(tc.expr)
	}
	for _, expr := range badFilterExprs {
		f.Add(expr)
	}
	f.Add(`prefix=203.0.113.0/24 vp=vp65001 origin=64999 community=65001:100 path="6939" type=announce`)
	f.Add(`vp="two words" path="6939 64999$"`)

	spellable := func(vals ...string) bool {
		for _, v := range vals {
			if v == "" || strings.Contains(v, `"`) {
				return false
			}
		}
		return true
	}
	roundTrip := func(t *testing.T, flt *Filter) {
		if !spellable(flt.VPs...) || (flt.Path != nil && !spellable(flt.Path.String())) {
			return
		}
		flt.raw = "" // force reconstruction from the compiled terms
		again, err := ParseFilter(flt.String())
		if err != nil {
			t.Fatalf("accepted filter renders as %q, which does not parse: %v", flt.String(), err)
		}
		for _, u := range []*update.Update{fxAnnounce, fxWithdraw, fxV6} {
			if got, want := again.Match(u, pathStrOf(u)), flt.Match(u, pathStrOf(u)); got != want {
				t.Fatalf("filter %q on %s/%s: %v before the round trip, %v after", flt.String(), u.VP, u.Prefix, want, got)
			}
		}
	}
	f.Fuzz(func(t *testing.T, text string) {
		if flt, err := ParseFilter(text); err == nil {
			roundTrip(t, flt)
		}
		for _, v := range []url.Values{{"filter": {text}}, {"vp": {text}}, {"path": {text}}, {"prefix": {text}}} {
			if flt, err := FilterFromValues(v); err == nil {
				roundTrip(t, flt)
			}
		}
	})
}
