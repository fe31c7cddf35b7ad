package daemon

import (
	"io"
	"net/netip"
	"time"

	"repro/internal/bgp"
	"repro/internal/filter"
	"repro/internal/mrt"
	"repro/internal/update"
	"repro/internal/workload"
)

// CapacityModel extrapolates single-CPU daemon loss to peer counts that
// cannot run on one test machine, reproducing Table 1. The model captures
// the paper's observation that disk writes dominate the daemon's cost, so
// filtering (which discards most updates before they reach the disk)
// raises the sustainable peer count.
type CapacityModel struct {
	// PerUpdateCost is the CPU time to parse and filter one update.
	PerUpdateCost time.Duration
	// PerWriteCost is the additional cost to archive one retained update.
	PerWriteCost time.Duration
	// DropFraction is the share of updates the filters discard before the
	// write path (≈0 without filters, ≈0.93 with GILL's, §6).
	DropFraction float64
}

// LossFraction returns the share of updates lost with the given number of
// peers each sending ratePerHour updates.
func (m CapacityModel) LossFraction(peers, ratePerHour int) float64 {
	per := m.PerUpdateCost + time.Duration((1-m.DropFraction)*float64(m.PerWriteCost))
	if per <= 0 {
		return 0
	}
	capacity := float64(time.Second) / float64(per)
	offered := float64(peers) * float64(ratePerHour) / 3600
	if offered <= capacity {
		return 0
	}
	return 1 - capacity/offered
}

// Calibrate measures the daemon's per-update processing and archiving
// costs by pushing n synthetic updates through the filter and MRT write
// paths (without the network). It returns a model with the measured costs
// and the filter's observed drop fraction.
func Calibrate(filters *filter.Set, out io.Writer, n int) CapacityModel {
	if n <= 0 {
		n = 20000
	}
	stream := workload.Stream(workload.StreamConfig{
		PeerAS: 65001, Seed: 42, Prefixes: 500,
	}, n)
	// Pre-encode the wire form: the daemon's per-update CPU cost is
	// dominated by parsing the BGP message off the session.
	wire := make([][]byte, len(stream))
	for i, tu := range stream {
		w, err := bgp.Marshal(tu.Update)
		if err != nil {
			continue
		}
		wire[i] = w
	}

	// Phase 1: parse + filter cost.
	dropped := 0
	start := time.Now()
	for i, tu := range stream {
		msg, err := bgp.Unmarshal(wire[i])
		if err != nil {
			continue
		}
		upd, ok := msg.(*bgp.Update)
		if !ok {
			continue
		}
		for _, p := range upd.NLRI {
			rec := update.Update{VP: "vp65001", Time: tu.At, Prefix: p, Path: upd.Path()}
			if filters != nil && !filters.Keep(&rec) {
				dropped++
			}
		}
		for _, p := range upd.Withdrawn {
			rec := update.Update{VP: "vp65001", Time: tu.At, Prefix: p, Withdraw: true}
			if filters != nil && !filters.Keep(&rec) {
				dropped++
			}
		}
	}
	perUpdate := time.Since(start) / time.Duration(n)

	// Phase 2: MRT write cost.
	w := mrt.NewWriter(out)
	start = time.Now()
	for _, tu := range stream {
		rec := &mrt.Record{
			Header: mrt.Header{Timestamp: tu.At, Type: mrt.TypeBGP4MP, Subtype: mrt.SubtypeBGP4MPMessageAS4},
			BGP4MP: &mrt.BGP4MPMessage{
				PeerAS: 65001, LocalAS: 65000,
				PeerIP:  netip.AddrFrom4([4]byte{192, 0, 2, 9}),
				LocalIP: netip.AddrFrom4([4]byte{192, 0, 2, 1}),
				Message: tu.Update,
			},
		}
		_ = w.WriteRecord(rec)
	}
	perWrite := time.Since(start) / time.Duration(n)

	dropFrac := 0.0
	if filters != nil {
		dropFrac = float64(dropped) / float64(n)
	}
	return CapacityModel{
		PerUpdateCost: perUpdate,
		PerWriteCost:  perWrite,
		DropFraction:  dropFrac,
	}
}
