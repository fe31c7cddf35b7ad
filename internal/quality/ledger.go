package quality

// The completeness ledger is a conservation law over the collection path:
// every update a daemon accepted from a socket must end up in exactly one
// terminal bucket. Isolario's post-mortem lesson is that BGP platforms
// lose data silently — the counters all look plausible individually, and
// nothing checks that they add up. Here the books must balance:
//
//	In = Archived + Filtered + Dropped + Lost + Queued
//
// with the residual surfaced as quality.unaccounted. A nonzero residual
// at quiescence means an accounting hole (an update path that neither
// archives nor counts its loss), which is a bug by definition.

// LedgerCounts is one sample of the collection path's books. Producers
// (the daemon) snapshot the terminal buckets first and the intake counter
// last, so a sample raced against live traffic errs toward a transient
// positive residual (updates seen at intake but not yet landed) rather
// than a phantom negative one.
type LedgerCounts struct {
	// In counts every update accepted from a peer socket after protocol
	// validation — the quantity being conserved.
	In uint64 `json:"in"`
	// Archived counts updates written to the archive (MRT stream and/or
	// store sink).
	Archived uint64 `json:"archived"`
	// Filtered counts updates discarded by the installed filter set —
	// the deliberate overshoot-and-discard drops.
	Filtered uint64 `json:"filtered"`
	// Dropped counts updates shed by queue-overflow policy under
	// backpressure.
	Dropped uint64 `json:"dropped"`
	// Lost counts updates that reached the archive stage but could not
	// be written — encode errors, destination write errors, sink errors.
	Lost uint64 `json:"lost"`
	// Queued counts updates still in flight inside the pipeline.
	Queued uint64 `json:"queued"`
}

// Unaccounted returns the conservation residual: In minus the sum of all
// terminal buckets. Zero means every accepted update is accounted for;
// positive means updates went missing without a counted cause; negative
// means double counting. Both non-zero cases are bugs once the pipeline
// is quiescent.
func (c LedgerCounts) Unaccounted() int64 {
	return int64(c.In) - int64(c.Archived+c.Filtered+c.Dropped+c.Lost+c.Queued)
}

// LedgerReport is the ledger as served on /qualityz: the raw buckets plus
// the precomputed residual.
type LedgerReport struct {
	LedgerCounts
	Unaccounted int64 `json:"unaccounted"`
}

// Report builds the JSON view of a sample.
func (c LedgerCounts) Report() LedgerReport {
	return LedgerReport{LedgerCounts: c, Unaccounted: c.Unaccounted()}
}
