// Package filter implements GILL's filter generation and evaluation (§7).
// Filters are priority-ordered rules applied to each peering session's
// update stream: high-priority accept-all rules for anchor VPs, drop rules
// for redundant (VP, prefix) pairs, and an accept-everything default so
// never-seen updates (new prefixes, new VPs) are always retained.
//
// The package also provides the two finer-grained variants the paper uses
// to validate the coarse granularity choice: GILL-asp (rules additionally
// match the AS path) and GILL-asp-comm (AS path and community values).
package filter

import (
	"bufio"
	"fmt"
	"io"
	"net/netip"
	"sort"
	"strings"

	"repro/internal/correlation"
	"repro/internal/update"
)

// Granularity selects how precisely drop rules match updates.
type Granularity int

// Granularities.
const (
	// GranVPPrefix is GILL's production granularity: match on the sending
	// VP and the prefix only.
	GranVPPrefix Granularity = iota
	// GranVPPrefixPath additionally matches the AS path (GILL-asp).
	GranVPPrefixPath
	// GranVPPrefixPathComm additionally matches community values
	// (GILL-asp-comm).
	GranVPPrefixPathComm
)

// String implements fmt.Stringer.
func (g Granularity) String() string {
	switch g {
	case GranVPPrefix:
		return "vp-prefix"
	case GranVPPrefixPath:
		return "vp-prefix-path"
	case GranVPPrefixPathComm:
		return "vp-prefix-path-comm"
	default:
		return "unknown"
	}
}

// Set is a compiled filter set. The zero value accepts everything.
type Set struct {
	Granularity Granularity
	// anchors accept all updates regardless of drop rules (highest
	// priority, Fig. 5b).
	anchors map[string]bool
	// drops holds the drop rules keyed by rule key (granularity-dependent).
	drops map[string]bool
}

// NewSet returns an empty filter set of the given granularity.
func NewSet(g Granularity) *Set {
	return &Set{
		Granularity: g,
		anchors:     make(map[string]bool),
		drops:       make(map[string]bool),
	}
}

// AddAnchor installs an accept-all rule for a VP.
func (s *Set) AddAnchor(vp string) { s.anchors[vp] = true }

// Anchors returns the anchor VPs, sorted.
func (s *Set) Anchors() []string {
	out := make([]string, 0, len(s.anchors))
	for vp := range s.anchors {
		out = append(out, vp)
	}
	sort.Strings(out)
	return out
}

// IsAnchor reports whether vp has an accept-all rule.
func (s *Set) IsAnchor(vp string) bool { return s.anchors[vp] }

// ruleKey renders the drop-rule key for an update at granularity g.
func ruleKey(g Granularity, u *update.Update) string {
	var b strings.Builder
	b.WriteString(u.VP)
	b.WriteByte('|')
	b.WriteString(u.Prefix.String())
	if g >= GranVPPrefixPath {
		b.WriteByte('|')
		b.WriteString(update.PathKey(u.Path))
	}
	if g >= GranVPPrefixPathComm {
		b.WriteByte('|')
		cs := append([]uint32(nil), u.Comms...)
		sort.Slice(cs, func(i, j int) bool { return cs[i] < cs[j] })
		for _, c := range cs {
			fmt.Fprintf(&b, "%d,", c)
		}
	}
	return b.String()
}

// AddDrop installs a drop rule matching the given update's key fields.
func (s *Set) AddDrop(u *update.Update) { s.drops[ruleKey(s.Granularity, u)] = true }

// AddDropVPPrefix installs a coarse drop rule directly.
func (s *Set) AddDropVPPrefix(vp string, p netip.Prefix) {
	if s.Granularity != GranVPPrefix {
		panic("filter: AddDropVPPrefix requires GranVPPrefix")
	}
	s.drops[vp+"|"+p.String()] = true
}

// NumDrops returns the number of drop rules.
func (s *Set) NumDrops() int { return len(s.drops) }

// Keep reports whether the update passes the filters (true = retained).
// Evaluation order mirrors Fig. 5b: anchor accept-alls, then drop rules,
// then the accept-everything default.
func (s *Set) Keep(u *update.Update) bool {
	if s.anchors != nil && s.anchors[u.VP] {
		return true
	}
	if s.drops == nil {
		return true
	}
	return !s.drops[ruleKey(s.Granularity, u)]
}

// Apply filters a stream, returning retained updates.
func (s *Set) Apply(us []*update.Update) []*update.Update {
	out := make([]*update.Update, 0, len(us))
	for _, u := range us {
		if s.Keep(u) {
			out = append(out, u)
		}
	}
	return out
}

// MatchFraction returns the share of updates matched (dropped) by the
// filters — the Fig. 7 decay metric.
func (s *Set) MatchFraction(us []*update.Update) float64 {
	if len(us) == 0 {
		return 0
	}
	dropped := 0
	for _, u := range us {
		if !s.Keep(u) {
			dropped++
		}
	}
	return float64(dropped) / float64(len(us))
}

// Generate compiles filters from Component #1's redundancy result and
// Component #2's anchor VPs. Drop rules are emitted for every (VP, prefix)
// pair observed in training and classified redundant; at finer
// granularities, one rule per distinct redundant update key.
func Generate(res *correlation.Result, anchorVPs []string, g Granularity) *Set {
	s := NewSet(g)
	for _, vp := range anchorVPs {
		s.AddAnchor(vp)
	}
	for p, pa := range res.PerPrefix {
		retained := res.Retained[p]
		for vp, ups := range pa.ByVP {
			if retained[vp] {
				continue
			}
			if g == GranVPPrefix {
				s.AddDropVPPrefix(vp, p)
				continue
			}
			for _, u := range ups {
				s.AddDrop(u)
			}
		}
	}
	return s
}

// Marshal writes the filter set in the published text format (§9: GILL
// publishes its computed filters so users know which updates are absent).
func (s *Set) Marshal(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "granularity %d\n", s.Granularity)
	for _, vp := range s.Anchors() {
		fmt.Fprintf(bw, "accept-all %s\n", vp)
	}
	keys := make([]string, 0, len(s.drops))
	for k := range s.drops {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(bw, "drop %s\n", k)
	}
	return bw.Flush()
}

// Unmarshal reads the Marshal format. Lines are read with surrounding
// whitespace trimmed, so a hand-edited file may indent or pad them.
func Unmarshal(r io.Reader) (*Set, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	s := NewSet(GranVPPrefix)
	var drops []string
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
		case strings.HasPrefix(line, "granularity "):
			var g int
			if _, err := fmt.Sscanf(line, "granularity %d", &g); err != nil {
				return nil, fmt.Errorf("filter: bad granularity line %q", line)
			}
			s.Granularity = Granularity(g)
		case strings.HasPrefix(line, "accept-all "):
			s.AddAnchor(strings.TrimPrefix(line, "accept-all "))
		case strings.HasPrefix(line, "drop "):
			drops = append(drops, strings.TrimPrefix(line, "drop "))
		default:
			return nil, fmt.Errorf("filter: unrecognized line %q", line)
		}
	}
	// A path-granularity key ends in the AS path's trailing space
	// (update.PathKey), which trimming took off; a key ending in '|' has
	// an empty path and had none. Restored once the granularity is known.
	for _, k := range drops {
		if s.Granularity == GranVPPrefixPath && !strings.HasSuffix(k, "|") {
			k += " "
		}
		s.drops[k] = true
	}
	return s, sc.Err()
}
