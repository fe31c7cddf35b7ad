package quality

// Plane is the online auditor. The shadow lane feeds it both verdicts for
// a deterministic slice of slots (kept and would-have-been-discarded);
// periodically — or on demand from /qualityz — it replays that slice
// through the correlation machinery and the §10 use-case evaluators to
// answer, with live data, the questions the paper answered offline:
// could the archive reconstitute what the filters discarded, and would
// the analyses built on the archive still have seen their events?

import (
	"context"
	"sync"
	"time"

	"repro/internal/correlation"
	"repro/internal/metrics"
	"repro/internal/telemetry"
	"repro/internal/update"
	"repro/internal/usecases"
)

// Config parameterizes a Plane. The zero value of every field has a
// usable default; Selector decides whether the shadow lane is on at all.
type Config struct {
	// Selector is the deterministic shadow-slot picker.
	Selector Selector
	// Window bounds how far back an audit looks (default 10m): shadow
	// observations older than this are evicted. Long enough to span the
	// correlation slack many times over, short enough that drift scores
	// react within minutes.
	Window time.Duration
	// MaxBuffer caps the shadow buffer (default 65536 observations);
	// overflow evicts the oldest eighth and counts each evicted
	// observation in quality.shadow.evicted.
	MaxBuffer int
	// Correlation configures the live RP analysis (zero: DefaultConfig).
	Correlation correlation.Config
	// TrainingRP is the reconstitution power the filters were trained to
	// (§17.2's stop threshold, default 0.94) — the yardstick live RP is
	// compared against on /qualityz.
	TrainingRP float64
	// Evaluators are the use cases scored for live event coverage
	// (default usecases.All(nil); note the zero ActionComms evaluator
	// scores 1 vacuously without a community registry).
	Evaluators []usecases.Evaluator
	// DriftThreshold is the attribute-novelty rate past which the plane
	// raises an early-recompute signal (default 0.35 — comfortably above
	// the background churn rate of a healthy table, far below the ~1.0
	// of a genuinely shifted VP).
	DriftThreshold float64
	// DriftBuckets is the PerBucket localization fan-out (default 16).
	DriftBuckets int
	// DriftMinUpdates is the sample floor for raising Crossed
	// (default 32).
	DriftMinUpdates int
	// AuditInterval paces Run's background audits (default 30s).
	AuditInterval time.Duration
	// Registry receives quality.* metrics (default: a private registry).
	Registry *metrics.Registry
	// Log receives structured drift events (may be nil).
	Log *telemetry.Logger
	// OnDrift, when set, is called on each threshold crossing (edge
	// triggered) — the hook the orchestrator's Recomputer consumes.
	OnDrift func(DriftReport)
	// Clock overrides the time source (tests).
	Clock func() time.Time
}

// shadowObs is one shadow-lane observation: the update, the filter's
// verdict for it, and when the plane saw it.
type shadowObs struct {
	u    *update.Update
	kept bool
	at   time.Time
}

// Report is one audit's result — the /qualityz payload.
type Report struct {
	// ShadowFraction is the configured fraction, e.g. "1/64".
	ShadowFraction string `json:"shadow_fraction"`
	// ShadowObserved/Kept/Discarded/Evicted are lifetime counters of the
	// shadow lane; Buffered is the current audit-window population.
	ShadowObserved  uint64 `json:"shadow_observed"`
	ShadowKept      uint64 `json:"shadow_kept"`
	ShadowDiscarded uint64 `json:"shadow_discarded"`
	ShadowEvicted   uint64 `json:"shadow_evicted"`
	Buffered        int    `json:"buffered"`
	// LiveRP is the update-weighted mean reconstitution power across
	// shadowed prefixes: replaying the correlation groups at the kept
	// VPs' timestamps, what fraction of the full shadow stream (kept and
	// discarded) is recovered. TrainingRP is the §17.2 stop threshold
	// the filters were compiled to.
	LiveRP     float64 `json:"live_rp"`
	TrainingRP float64 `json:"training_rp"`
	RPPrefixes int     `json:"rp_prefixes"`
	// Coverage is the per-use-case live event coverage: the fraction of
	// events detectable in the full shadow view still detectable in the
	// filtered view.
	Coverage map[string]float64 `json:"coverage"`
	// Drift is the attribute-novelty score against the training (or
	// self) baseline.
	Drift DriftReport `json:"drift"`
	// Ledger is the completeness ledger sample, if a ledger source is
	// wired.
	Ledger *LedgerReport `json:"ledger,omitempty"`
	// VPHealth is the vitals plane's per-VP health digest (state counts,
	// archive gap total), if a vitals source is wired: use-case coverage
	// numbers are only as trustworthy as the VPs feeding them.
	VPHealth any `json:"vp_health,omitempty"`
	// Audits counts audits run so far (including this one).
	Audits uint64 `json:"audits"`
}

// Plane is the data-quality plane for one process. All methods are safe
// for concurrent use; ObserveShadow is cheap enough for shard workers.
type Plane struct {
	cfg Config

	mu           sync.Mutex
	buf          []shadowObs
	baseline     correlation.Baseline
	baselineKind string // "none", "self", "training"
	ledger       func() LedgerCounts
	vpHealth     func() any
	last         Report
	above        bool // drift edge-trigger state

	observed  *metrics.Counter
	kept      *metrics.Counter
	discarded *metrics.Counter
	evicted   *metrics.Counter
	audits    *metrics.Counter
	driftSigs *metrics.Counter
	auditDur  *metrics.Histogram
	liveRP    *metrics.Gauge
	trainRP   *metrics.Gauge
	driftPPM  *metrics.Gauge
	unacct    *metrics.Gauge
	coverage  map[string]*metrics.Gauge
}

// NewPlane builds a Plane and eagerly registers every quality.* series,
// so /metrics shows the full catalogue from boot rather than growing it
// as audits happen.
func NewPlane(cfg Config) *Plane {
	if cfg.Window <= 0 {
		cfg.Window = 10 * time.Minute
	}
	if cfg.MaxBuffer <= 0 {
		cfg.MaxBuffer = 65536
	}
	if cfg.Correlation.Window <= 0 {
		cfg.Correlation = correlation.DefaultConfig()
	}
	if cfg.TrainingRP <= 0 {
		cfg.TrainingRP = 0.94
	}
	if cfg.Evaluators == nil {
		cfg.Evaluators = usecases.All(nil)
	}
	if cfg.DriftThreshold <= 0 {
		cfg.DriftThreshold = 0.35
	}
	if cfg.DriftBuckets <= 0 {
		cfg.DriftBuckets = 16
	}
	if cfg.DriftMinUpdates <= 0 {
		cfg.DriftMinUpdates = 32
	}
	if cfg.AuditInterval <= 0 {
		cfg.AuditInterval = 30 * time.Second
	}
	if cfg.Registry == nil {
		cfg.Registry = metrics.NewRegistry()
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	p := &Plane{
		cfg:          cfg,
		baselineKind: "none",
		observed:     cfg.Registry.Counter("quality.shadow.observed"),
		kept:         cfg.Registry.Counter("quality.shadow.kept"),
		discarded:    cfg.Registry.Counter("quality.shadow.discarded"),
		evicted:      cfg.Registry.Counter("quality.shadow.evicted"),
		audits:       cfg.Registry.Counter("quality.audits"),
		driftSigs:    cfg.Registry.Counter("quality.drift.signals"),
		auditDur:     cfg.Registry.Histogram("quality.audit_duration_ns", metrics.ExpBuckets(1000, 2, 24)),
		liveRP:       cfg.Registry.Gauge("quality.rp.live_ppm"),
		trainRP:      cfg.Registry.Gauge("quality.rp.training_ppm"),
		driftPPM:     cfg.Registry.Gauge("quality.drift.score_ppm"),
		unacct:       cfg.Registry.Gauge("quality.unaccounted"),
		coverage:     make(map[string]*metrics.Gauge, len(cfg.Evaluators)),
	}
	for _, ev := range cfg.Evaluators {
		p.coverage[ev.Name()] = cfg.Registry.Gauge("quality.coverage." + ev.Name() + "_ppm")
	}
	p.trainRP.Set(ppm(cfg.TrainingRP))
	cfg.Registry.GaugeFunc("quality.shadow.buffered", func() int64 {
		p.mu.Lock()
		defer p.mu.Unlock()
		return int64(len(p.buf))
	})
	return p
}

// ppm scales a [0,1] ratio into parts-per-million for the integer gauges.
func ppm(v float64) int64 { return int64(v * 1e6) }

// Selector returns the configured shadow selector.
func (p *Plane) Selector() Selector { return p.cfg.Selector }

// Selected is the FilterStage.ShadowSelect hook.
func (p *Plane) Selected(u *update.Update) bool {
	return p.cfg.Selector.SelectUpdate(u)
}

// ObserveShadow is the FilterStage.ShadowSink hook: it records one
// shadow-lane update with the filter's verdict. Called from shard
// workers; must stay cheap.
func (p *Plane) ObserveShadow(u *update.Update, keptByFilter bool) {
	p.observed.Inc()
	if keptByFilter {
		p.kept.Inc()
	} else {
		p.discarded.Inc()
	}
	now := p.cfg.Clock()
	p.mu.Lock()
	p.buf = append(p.buf, shadowObs{u: u, kept: keptByFilter, at: now})
	if len(p.buf) > p.cfg.MaxBuffer {
		// Evict the oldest eighth in one copy. Shifting by one entry per
		// observation would move the whole buffer on every call once it
		// is full; a block makes the move amortised O(1).
		n := max(1, p.cfg.MaxBuffer/8)
		p.buf = append(p.buf[:0], p.buf[n:]...)
		p.evicted.Add(uint64(n))
	}
	p.mu.Unlock()
}

// SetLedger wires the completeness-ledger source (e.g. the daemon's
// LedgerCounts method); each audit samples it and publishes the residual
// as quality.unaccounted.
func (p *Plane) SetLedger(fn func() LedgerCounts) {
	p.mu.Lock()
	p.ledger = fn
	p.mu.Unlock()
}

// SetVPHealth wires the vitals plane's health digest (e.g. a vitals
// Tracker's Summary, wrapped in func() any); each audit report embeds
// the current digest as vp_health.
func (p *Plane) SetVPHealth(fn func() any) {
	p.mu.Lock()
	p.vpHealth = fn
	p.mu.Unlock()
}

// SetBaseline installs training-time digests (from the orchestrator's
// last recompute, correlation.Result.Baseline()) as the drift reference.
func (p *Plane) SetBaseline(b correlation.Baseline) {
	if b == nil {
		return
	}
	p.mu.Lock()
	p.baseline = b
	p.baselineKind = "training"
	p.mu.Unlock()
}

// Audit runs one full audit pass — live RP, use-case coverage, drift
// score, ledger sample — publishes the quality.* gauges, and returns the
// report. The heavy work runs outside the plane lock on a snapshot of
// the shadow buffer.
func (p *Plane) Audit() Report {
	start := p.cfg.Clock()

	p.mu.Lock()
	// Evict observations that aged out of the window.
	cutoff := start.Add(-p.cfg.Window)
	drop := 0
	for drop < len(p.buf) && p.buf[drop].at.Before(cutoff) {
		drop++
	}
	if drop > 0 {
		p.buf = append(p.buf[:0], p.buf[drop:]...)
		p.evicted.Add(uint64(drop))
	}
	obs := make([]shadowObs, len(p.buf))
	copy(obs, p.buf)
	// Without training digests, the first populated audit adopts its own
	// observations as a relative baseline.
	if p.baselineKind == "none" && len(obs) > 0 {
		p.baseline = selfBaseline(obs)
		p.baselineKind = "self"
	}
	baseline, kind := p.baseline, p.baselineKind
	ledger := p.ledger
	vpHealth := p.vpHealth
	p.mu.Unlock()

	r := Report{
		ShadowFraction:  p.cfg.Selector.String(),
		ShadowObserved:  p.observed.Load(),
		ShadowKept:      p.kept.Load(),
		ShadowDiscarded: p.discarded.Load(),
		ShadowEvicted:   p.evicted.Load(),
		Buffered:        len(obs),
		TrainingRP:      p.cfg.TrainingRP,
	}
	r.LiveRP, r.RPPrefixes = liveRP(obs, p.cfg.Correlation)
	r.Coverage = liveCoverage(obs, p.cfg.Evaluators)
	r.Drift = scoreDrift(obs, baseline, kind, p.cfg.DriftThreshold,
		p.cfg.DriftBuckets, p.cfg.DriftMinUpdates)
	if ledger != nil {
		lr := ledger().Report()
		r.Ledger = &lr
		p.unacct.Set(lr.Unaccounted)
	}
	if vpHealth != nil {
		r.VPHealth = vpHealth()
	}

	p.liveRP.Set(ppm(r.LiveRP))
	p.driftPPM.Set(ppm(r.Drift.Score))
	for name, g := range p.coverage {
		g.Set(ppm(r.Coverage[name]))
	}
	p.audits.Inc()
	r.Audits = p.audits.Load()
	p.auditDur.Observe(uint64(p.cfg.Clock().Sub(start)))

	p.mu.Lock()
	crossedEdge := r.Drift.Crossed && !p.above
	p.above = r.Drift.Crossed
	p.last = r
	p.mu.Unlock()

	if crossedEdge {
		p.driftSigs.Inc()
		p.cfg.Log.Warn("drift threshold crossed",
			"score", r.Drift.Score,
			"threshold", p.cfg.DriftThreshold,
			"baseline", r.Drift.Baseline,
			"novel", r.Drift.NovelUpdates,
			"total", r.Drift.TotalUpdates,
			"changed_prefixes", r.Drift.ChangedPrefixes,
			"new_prefixes", r.Drift.NewPrefixes)
		if p.cfg.OnDrift != nil {
			p.cfg.OnDrift(r.Drift)
		}
	}
	return r
}

// Run paces background audits until ctx ends.
func (p *Plane) Run(ctx context.Context) {
	t := time.NewTicker(p.cfg.AuditInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			p.Audit()
		}
	}
}

// Status returns a fresh audit — the /qualityz payload. (Audits are on
// demand as well as paced, so an operator curling /qualityz always sees
// current data, not the last tick's.)
func (p *Plane) Status() any { return p.Audit() }

// liveRP estimates reconstitution power over the shadow sample: per
// prefix, the correlation groups are built from the full (kept +
// discarded) view and replayed at the kept VPs; the score is the
// update-weighted mean across prefixes. An empty sample reports 1 —
// nothing was discarded unaudited.
func liveRP(obs []shadowObs, cfg correlation.Config) (float64, int) {
	type pslot struct {
		all     []*update.Update
		keptVPs map[string]bool
	}
	byPrefix := make(map[string]*pslot)
	order := make([]*pslot, 0)
	for i := range obs {
		o := &obs[i]
		k := o.u.Prefix.String()
		s := byPrefix[k]
		if s == nil {
			s = &pslot{keptVPs: make(map[string]bool)}
			byPrefix[k] = s
			order = append(order, s)
		}
		s.all = append(s.all, o.u)
		if o.kept {
			s.keptVPs[o.u.VP] = true
		}
	}
	if len(order) == 0 {
		return 1, 0
	}
	var weighted float64
	var total int
	for _, s := range order {
		pa := correlation.AnalyzePrefix(s.all[0].Prefix, s.all, cfg)
		rp := pa.ReconstitutionPower(s.keptVPs)
		weighted += rp * float64(len(s.all))
		total += len(s.all)
	}
	return weighted / float64(total), len(order)
}

// liveCoverage scores each evaluator's live event coverage: ground truth
// from the full shadow view, recovery from the filtered view.
func liveCoverage(obs []shadowObs, evs []usecases.Evaluator) map[string]float64 {
	full := make([]*update.Update, 0, len(obs))
	sample := make([]*update.Update, 0, len(obs))
	for _, o := range obs {
		full = append(full, o.u)
		if o.kept {
			sample = append(sample, o.u)
		}
	}
	return usecases.Coverage(evs, full, sample)
}
