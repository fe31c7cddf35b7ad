// Package stream is the live feed (§9) and the mass-streaming half of the
// serving plane: a RIS-Live-style fan-out of the retained update feed to
// many concurrent subscribers, each with its own filter expression and
// rate limit, delivered as JSON lines over HTTP or consumed in-process,
// plus the reconnecting client that follows it (Dial, Tail). The package
// also owns the wire schema they exchange (Message, message.go), which the
// /api query endpoints render too.
// The collection path never blocks on a reader: bounded per-subscriber
// queues, token-bucket rate limits, and eviction when a subscriber cannot
// keep up.
package stream

// Filter expressions. The grammar is a conjunction of whitespace-
// separated key=value terms; repeating a key ORs its values:
//
//	expr    := term { WS term }
//	term    := key "=" value
//	value   := bare-word | '"' quoted (may contain spaces) '"'
//	keys:
//	  prefix    exact prefix match                  (repeat → OR)
//	  within    update's prefix contained in value  (repeat → OR)
//	  vp        vantage point name                  (repeat → OR)
//	  origin    origin AS of the path               (repeat → OR)
//	  community "A:B" or raw uint32; must be present (repeat → OR)
//	  path      RE2 regex over the space-joined AS path, e.g.
//	            path="(^|\s)64999$" for "originated by 64999"
//	  type      announce | withdraw
//
// Example: `within=203.0.113.0/24 vp=vp65001 path="6939" type=announce`.
// The empty expression matches everything (the firehose).

import (
	"fmt"
	"net/netip"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/update"
)

// Filter is a compiled subscriber filter; the zero value matches every
// update.
type Filter struct {
	Prefixes    []netip.Prefix // exact match, OR
	Within      []netip.Prefix // containment, OR
	VPs         []string       // OR
	Origins     []uint32       // OR
	Communities []uint32       // OR (update must carry one of them)
	Path        *regexp.Regexp // over the space-joined AS path
	// Type is 0 (any), 'A' (announcements only) or 'W' (withdrawals only).
	Type byte

	raw string
}

// ParseFilter compiles a filter expression. An empty expression returns
// a match-all filter.
func ParseFilter(expr string) (*Filter, error) {
	f := &Filter{raw: strings.TrimSpace(expr)}
	terms, err := tokenize(expr)
	if err != nil {
		return nil, err
	}
	for _, t := range terms {
		key, val, ok := strings.Cut(t, "=")
		if !ok || val == "" {
			return nil, fmt.Errorf("stream: bad filter term %q (want key=value)", t)
		}
		if err := f.addTerm(key, val); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// addTerm applies one key=value term; used by both the expression parser
// and the HTTP query-parameter form.
func (f *Filter) addTerm(key, val string) error {
	switch key {
	case "prefix":
		p, err := netip.ParsePrefix(val)
		if err != nil {
			return fmt.Errorf("stream: bad prefix %q: %w", val, err)
		}
		f.Prefixes = append(f.Prefixes, p.Masked())
	case "within":
		p, err := netip.ParsePrefix(val)
		if err != nil {
			return fmt.Errorf("stream: bad within %q: %w", val, err)
		}
		f.Within = append(f.Within, p.Masked())
	case "vp":
		f.VPs = append(f.VPs, val)
	case "origin":
		as, err := strconv.ParseUint(val, 10, 32)
		if err != nil {
			return fmt.Errorf("stream: bad origin %q: %w", val, err)
		}
		f.Origins = append(f.Origins, uint32(as))
	case "community":
		c, err := parseCommunity(val)
		if err != nil {
			return err
		}
		f.Communities = append(f.Communities, c)
	case "path":
		if f.Path != nil {
			return fmt.Errorf("stream: duplicate path regex")
		}
		re, err := regexp.Compile(val)
		if err != nil {
			return fmt.Errorf("stream: bad path regex %q: %w", val, err)
		}
		f.Path = re
	case "type":
		switch val {
		case "announce", "announcement", "update":
			f.Type = 'A'
		case "withdraw", "withdrawal":
			f.Type = 'W'
		default:
			return fmt.Errorf("stream: bad type %q (want announce or withdraw)", val)
		}
	default:
		return fmt.Errorf("stream: unknown filter key %q", key)
	}
	return nil
}

// parseCommunity accepts "A:B" (RFC 1997 rendering) or a raw uint32.
func parseCommunity(val string) (uint32, error) {
	if hi, lo, ok := strings.Cut(val, ":"); ok {
		h, err1 := strconv.ParseUint(hi, 10, 16)
		l, err2 := strconv.ParseUint(lo, 10, 16)
		if err1 != nil || err2 != nil {
			return 0, fmt.Errorf("stream: bad community %q", val)
		}
		return uint32(h)<<16 | uint32(l), nil
	}
	c, err := strconv.ParseUint(val, 10, 32)
	if err != nil {
		return 0, fmt.Errorf("stream: bad community %q", val)
	}
	return uint32(c), nil
}

// tokenize splits an expression on whitespace, honoring double quotes
// inside values (path="a b" is one term).
func tokenize(expr string) ([]string, error) {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range expr {
		switch {
		case r == '"':
			inQuote = !inQuote
		case !inQuote && (r == ' ' || r == '\t' || r == '\n'):
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	if inQuote {
		return nil, fmt.Errorf("stream: unterminated quote in filter %q", expr)
	}
	flush()
	return out, nil
}

// String returns the original expression (or a reconstruction for
// filters built term by term).
func (f *Filter) String() string {
	if f == nil {
		return ""
	}
	if f.raw != "" {
		return f.raw
	}
	var terms []string
	for _, p := range f.Prefixes {
		terms = append(terms, "prefix="+p.String())
	}
	for _, p := range f.Within {
		terms = append(terms, "within="+p.String())
	}
	for _, vp := range f.VPs {
		if strings.ContainsAny(vp, " \t\n") {
			vp = `"` + vp + `"`
		}
		terms = append(terms, "vp="+vp)
	}
	for _, as := range f.Origins {
		terms = append(terms, fmt.Sprintf("origin=%d", as))
	}
	for _, c := range f.Communities {
		terms = append(terms, fmt.Sprintf("community=%d:%d", c>>16, c&0xffff))
	}
	if f.Path != nil {
		// Quoted verbatim, not with %q: the tokenizer strips quotes but
		// knows no escapes, so %q's doubled backslashes would change the
		// regex (\s becoming a literal backslash and an s).
		terms = append(terms, `path="`+f.Path.String()+`"`)
	}
	switch f.Type {
	case 'A':
		terms = append(terms, "type=announce")
	case 'W':
		terms = append(terms, "type=withdraw")
	}
	return strings.Join(terms, " ")
}

// Match reports whether the update passes the filter. pathStr lazily
// renders the space-joined AS path — the hub shares one rendering across
// all subscribers of a message.
func (f *Filter) Match(u *update.Update, pathStr func() string) bool {
	if f == nil {
		return true
	}
	switch f.Type {
	case 'A':
		if u.Withdraw {
			return false
		}
	case 'W':
		if !u.Withdraw {
			return false
		}
	}
	if len(f.VPs) > 0 && !containsStr(f.VPs, u.VP) {
		return false
	}
	if len(f.Prefixes) > 0 && !containsPrefix(f.Prefixes, u.Prefix) {
		return false
	}
	if len(f.Within) > 0 {
		ok := false
		for _, p := range f.Within {
			if p.Contains(u.Prefix.Addr()) && u.Prefix.Bits() >= p.Bits() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if len(f.Origins) > 0 && !containsU32(f.Origins, u.Origin()) {
		return false
	}
	if len(f.Communities) > 0 {
		ok := false
		for _, want := range f.Communities {
			if containsU32(u.Comms, want) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	if f.Path != nil && !f.Path.MatchString(pathStr()) {
		return false
	}
	return true
}

func containsStr(hay []string, needle string) bool {
	for _, v := range hay {
		if v == needle {
			return true
		}
	}
	return false
}

func containsU32(hay []uint32, needle uint32) bool {
	for _, v := range hay {
		if v == needle {
			return true
		}
	}
	return false
}

func containsPrefix(hay []netip.Prefix, needle netip.Prefix) bool {
	for _, v := range hay {
		if v == needle.Masked() {
			return true
		}
	}
	return false
}
