// Package quality is GILL's data-quality plane: it audits the sampling
// filters while they run. The platform's overshoot-and-discard design
// (§5–§7) is only sound if the discarded updates were truly redundant —
// a property the seed validated offline and then trusted blindly between
// component refreshes. This package measures it continuously:
//
//   - A deterministic shadow lane (Selector) mirrors a configurable
//     fraction of (VP,prefix) slots past the filter stage, so for those
//     slots the plane holds both the kept stream and the stream the
//     filters would have discarded.
//   - An online auditor (Plane) replays the shadow slots against the
//     correlation machinery to estimate live reconstitution power,
//     re-runs the §10 use-case evaluators on full vs. filtered views for
//     live event coverage, and scores attribute-level drift against the
//     training-time digests from internal/correlation.
//   - A conservation-law completeness ledger (LedgerCounts) accounts
//     every update from socket accept to archive frame; any residual is
//     surfaced as quality.unaccounted instead of vanishing silently.
//
// Everything is exposed through the existing telemetry substrate:
// quality.* metrics on /metrics, the /qualityz admin endpoint, and
// structured log events on drift threshold crossings.
package quality

import (
	"fmt"
	"net/netip"
	"strconv"
	"strings"

	"repro/internal/update"
)

// FNV-64a constants, matching internal/correlation's digests — the shadow
// lane must be stable across processes and restarts, so it hashes rather
// than randomizes.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvBytes(h uint64, bs []byte) uint64 {
	for _, b := range bs {
		h ^= uint64(b)
		h *= fnvPrime64
	}
	return h
}

func fnvString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// Selector deterministically picks the (VP,prefix) slots mirrored into
// the shadow lane. Selection is a seeded FNV-64a hash of the slot key —
// no RNG — so the same seed and denominator select the same slots on
// every shard, every restart, and every replica; a slot is either always
// shadowed or never, which is what makes the audited sub-stream a
// coherent longitudinal sample rather than a per-update coin flip.
type Selector struct {
	// Seed decorrelates the selection from the pipeline's shard hash
	// (which also keys on (VP,prefix)): without it, "every 64th slot"
	// could systematically align with shard boundaries.
	Seed int64
	// Denom sets the sampled fraction: a slot is shadowed iff
	// hash(seed,VP,prefix) ≡ 0 (mod Denom). 0 disables the lane, 1
	// shadows every slot.
	Denom uint64
}

// Enabled reports whether the selector shadows anything at all.
func (s Selector) Enabled() bool { return s.Denom != 0 }

// Selected reports whether the (vp, prefix) slot is in the shadow lane.
func (s Selector) Selected(vp string, prefix netip.Prefix) bool {
	if s.Denom == 0 {
		return false
	}
	if s.Denom == 1 {
		return true
	}
	h := uint64(fnvOffset64)
	var seed [8]byte
	v := uint64(s.Seed)
	for i := range seed {
		seed[i] = byte(v)
		v >>= 8
	}
	h = fnvBytes(h, seed[:])
	h = fnvString(h, vp)
	a := prefix.Addr().As16()
	h = fnvBytes(h, a[:])
	h = fnvBytes(h, []byte{byte(prefix.Bits())})
	return h%s.Denom == 0
}

// SelectUpdate is Selected on an update's slot key — the function shape
// pipeline.FilterStage.ShadowSelect wants.
func (s Selector) SelectUpdate(u *update.Update) bool {
	return s.Selected(u.VP, u.Prefix)
}

// String renders the fraction the way the -shadow-fraction flag accepts
// it: "1/64", "all", or "off".
func (s Selector) String() string {
	switch s.Denom {
	case 0:
		return "off"
	case 1:
		return "all"
	default:
		return "1/" + strconv.FormatUint(s.Denom, 10)
	}
}

// ParseFraction parses a -shadow-fraction flag value into a denominator:
// "1/64" or "64" → 64, "all" or "1" → 1, "off" or "0" → 0.
func ParseFraction(s string) (uint64, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "off", "0", "none", "":
		return 0, nil
	case "all", "1", "1/1":
		return 1, nil
	}
	t := strings.TrimSpace(s)
	if rest, ok := strings.CutPrefix(t, "1/"); ok {
		t = rest
	}
	d, err := strconv.ParseUint(strings.TrimSpace(t), 10, 64)
	if err != nil || d == 0 {
		return 0, fmt.Errorf("quality: bad shadow fraction %q (want 1/N, N, all, or off)", s)
	}
	return d, nil
}
