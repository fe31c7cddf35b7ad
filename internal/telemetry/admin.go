package telemetry

// The admin plane is the embedded HTTP server every long-running GILL
// process exposes for operation: Prometheus metrics, a JSON status page,
// health/readiness probes, the flight-recorder dump, and pprof. It is an
// operator surface, not a public one — bind it to loopback (the commands
// document 127.0.0.1:8471) or put it behind the deployment's own
// authentication; there is none here by design (stdlib only, and secrets
// never belong on a metrics port anyway).

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"repro/internal/metrics"
)

// Admin serves the observability endpoints for one process. All fields
// are optional: a nil Registry renders an empty /metrics, a nil Recorder
// an empty /tracez, a nil Ready means always ready.
type Admin struct {
	// Registry supplies /metrics (Prometheus text, or JSON for
	// ?format=json) and the histogram summary on /statusz.
	Registry *metrics.Registry
	// Recorder supplies /tracez.
	Recorder *Recorder
	// Log receives request-level debug events (may be nil).
	Log *Logger
	// Ready decides /readyz: ok plus a human-readable reason either way.
	Ready func() (ok bool, reason string)
	// Status returns the component-specific payload embedded in /statusz
	// (daemon stats, per-session state, filter generation, ...).
	Status func() any
	// Quality returns the data-quality plane's JSON payload served on
	// /qualityz and embedded in /statusz (shadow fraction, live vs.
	// training reconstitution power, drift scores, ledger residuals). Nil
	// means no quality plane: /qualityz answers 404.
	Quality func() any
	// Fleet returns the federation payload served on /fleetz and embedded
	// in /statusz: for a coordinator its fabric.FleetStatus (assignment
	// map, lease state, filter generation per collector), for a collector
	// its fabric.AgentStatus. Nil means the process is not part of a
	// fabric: /fleetz answers 404.
	Fleet func() any
	// Alerts returns the SLO engine's alert payload served on /alertz and
	// embedded in /statusz (objectives, burn rates, firing/resolved
	// state). Nil means no SLO engine: /alertz answers 404.
	Alerts func() any
	// Vitals returns the per-VP data-health payload served on /vitalz and
	// embedded in /statusz (per-VP liveness state, rate EWMAs, archive
	// gap coverage, event timeline). Nil means no vitals plane: /vitalz
	// answers 404. When the payload implements
	// interface{ WriteProm(io.Writer) error }, /vitalz?format=prom
	// renders the per-VP labeled Prometheus series instead of JSON.
	Vitals func() any
	// Build carries the build-identity labels rendered as the build_info
	// gauge on /metrics and the "build" section of /statusz; nil defaults
	// to BuildInfo().
	Build map[string]string
	// Routes mounts additional handlers on the admin mux, keyed by
	// pattern in http.ServeMux syntax ("/api/", "/stream"). Set before
	// Handler/Serve; patterns colliding with the built-in endpoints
	// panic, same as registering them twice on a mux.
	Routes map[string]http.Handler

	start time.Time
}

// HistogramSummary is the compact latency view on /statusz: tails are
// readable without exporting to an external system.
type HistogramSummary struct {
	Count uint64  `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

// statuszPayload is the /statusz envelope.
type statuszPayload struct {
	Uptime      string                      `json:"uptime"`
	Ready       bool                        `json:"ready"`
	ReadyReason string                      `json:"ready_reason,omitempty"`
	Build       map[string]string           `json:"build,omitempty"`
	Status      any                         `json:"status,omitempty"`
	Quality     any                         `json:"quality,omitempty"`
	Fleet       any                         `json:"fleet,omitempty"`
	Alerts      any                         `json:"alerts,omitempty"`
	Vitals      any                         `json:"vitals,omitempty"`
	Histograms  map[string]HistogramSummary `json:"histograms,omitempty"`
}

// Handler builds the admin mux. Calling it marks the process start time
// for /statusz uptime.
func (a *Admin) Handler() http.Handler {
	if a.start.IsZero() {
		a.start = time.Now()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", a.metricsHandler)
	mux.HandleFunc("/statusz", a.statuszHandler)
	mux.HandleFunc("/qualityz", a.qualityzHandler)
	mux.HandleFunc("/fleetz", a.fleetzHandler)
	mux.HandleFunc("/alertz", a.alertzHandler)
	mux.HandleFunc("/vitalz", a.vitalzHandler)
	mux.HandleFunc("/healthz", a.healthzHandler)
	mux.HandleFunc("/readyz", a.readyzHandler)
	mux.HandleFunc("/tracez", a.tracezHandler)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	for pattern, h := range a.Routes {
		mux.Handle(pattern, h)
	}
	return mux
}

// Serve runs the admin server on ln until ctx ends; a context-driven
// shutdown returns nil.
func (a *Admin) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{Handler: a.Handler(), ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			_ = srv.Shutdown(shutCtx)
		case <-done:
		}
	}()
	err := srv.Serve(ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// buildLabels returns the configured build-identity labels, defaulting
// to BuildInfo().
func (a *Admin) buildLabels() map[string]string {
	if a.Build != nil {
		return a.Build
	}
	return BuildInfo()
}

// metricsHandler serves the registry as Prometheus text or, for
// ?format=json, as promSnapshot's JSON (the form the fleet federator
// scrapes; build_info is a text-only series).
func (a *Admin) metricsHandler(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		var snap metrics.Snapshot
		if a.Registry != nil {
			snap = a.Registry.Snapshot()
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if err := json.NewEncoder(w).Encode(promSnapshot(snap)); err != nil {
			a.Log.Debug("metrics render aborted", "err", err)
		}
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if err := WritePromInfo(w, "build_info", a.buildLabels()); err != nil {
		a.Log.Debug("metrics render aborted", "err", err)
		return
	}
	if a.Registry == nil {
		return
	}
	if err := WriteProm(w, a.Registry.Snapshot()); err != nil {
		a.Log.Debug("metrics render aborted", "err", err)
	}
}

func (a *Admin) statuszHandler(w http.ResponseWriter, r *http.Request) {
	p := statuszPayload{
		Uptime: time.Since(a.start).Round(time.Millisecond).String(),
		Ready:  true,
		Build:  a.buildLabels(),
	}
	if a.Ready != nil {
		p.Ready, p.ReadyReason = a.Ready()
	}
	if a.Status != nil {
		p.Status = a.Status()
	}
	if a.Quality != nil {
		p.Quality = a.Quality()
	}
	if a.Fleet != nil {
		p.Fleet = a.Fleet()
	}
	if a.Alerts != nil {
		p.Alerts = a.Alerts()
	}
	if a.Vitals != nil {
		p.Vitals = a.Vitals()
	}
	if a.Registry != nil {
		snap := a.Registry.Snapshot()
		if len(snap.Histograms) > 0 {
			p.Histograms = make(map[string]HistogramSummary, len(snap.Histograms))
			for name, h := range snap.Histograms {
				p.Histograms[name] = HistogramSummary{
					Count: h.Count,
					Mean:  h.Mean(),
					P50:   h.Quantile(0.50),
					P90:   h.Quantile(0.90),
					P99:   h.Quantile(0.99),
				}
			}
		}
	}
	writeJSON(w, http.StatusOK, p)
}

// qualityzHandler serves the data-quality plane's payload; without a
// plane the endpoint 404s so probes can tell "no quality plane" from
// "quality plane with empty data".
func (a *Admin) qualityzHandler(w http.ResponseWriter, r *http.Request) {
	if a.Quality == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, a.Quality())
}

// fleetzHandler serves the federation payload; a process outside any
// fabric 404s so probes can tell "standalone" from "fabric, empty fleet".
func (a *Admin) fleetzHandler(w http.ResponseWriter, r *http.Request) {
	if a.Fleet == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, a.Fleet())
}

// alertzHandler serves the SLO engine's alert state; without an engine
// the endpoint 404s so probes can tell "no SLOs" from "SLOs, all quiet".
func (a *Admin) alertzHandler(w http.ResponseWriter, r *http.Request) {
	if a.Alerts == nil {
		http.NotFound(w, r)
		return
	}
	writeJSON(w, http.StatusOK, a.Alerts())
}

// vitalzHandler serves the per-VP data-health payload; without a vitals
// plane the endpoint 404s so probes can tell "no vitals" from "vitals,
// all live". ?format=prom renders the per-VP labeled series when the
// payload knows how (the payload type stays opaque here — telemetry must
// not import the vitals package).
func (a *Admin) vitalzHandler(w http.ResponseWriter, r *http.Request) {
	if a.Vitals == nil {
		http.NotFound(w, r)
		return
	}
	payload := a.Vitals()
	if r.URL.Query().Get("format") == "prom" {
		if pw, ok := payload.(interface{ WriteProm(io.Writer) error }); ok {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			if err := pw.WriteProm(w); err != nil {
				a.Log.Debug("vitalz prom render aborted", "err", err)
			}
			return
		}
	}
	writeJSON(w, http.StatusOK, payload)
}

func (a *Admin) healthzHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte("ok\n"))
}

func (a *Admin) readyzHandler(w http.ResponseWriter, r *http.Request) {
	ok, reason := true, "ready"
	if a.Ready != nil {
		ok, reason = a.Ready()
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !ok {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	_, _ = w.Write([]byte(reason + "\n"))
}

func (a *Admin) tracezHandler(w http.ResponseWriter, r *http.Request) {
	n := 100
	if q := r.URL.Query().Get("n"); q != "" {
		if v, err := strconv.Atoi(q); err == nil && v > 0 {
			n = v
		}
	}
	traces := a.Recorder.Last(n)
	if traces == nil {
		traces = []Trace{}
	}
	offered, sampled := a.Recorder.Stats()
	writeJSON(w, http.StatusOK, map[string]any{
		"offered": offered,
		"sampled": sampled,
		"traces":  traces,
	})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
