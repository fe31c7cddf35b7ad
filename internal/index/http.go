package index

// The HTTP JSON API: the serving plane's query surface, mounted on the
// admin plane under /api/ (and servable standalone by gill-query).
//
//	GET /api/index                      → index inventory (Stats)
//	GET /api/query?from=&to=&prefix=&vp=&limit=  → updates in range
//	GET /api/rib?at=&prefix=&vp=&limit= → reconstructed state at a time
//
// Timestamps accept RFC 3339 or unix seconds; at=now is the current
// time. Responses render updates as stream.Message objects so the query
// and streaming halves of the serving plane share one wire schema.

import (
	"encoding/json"
	"net/http"
	"net/netip"
	"strconv"
	"time"

	"repro/internal/stream"
	"repro/internal/update"
)

// DefaultLimit bounds the updates one HTTP response returns unless the
// client asks for less; it exists so a range query over a busy archive
// cannot OOM the daemon.
const DefaultLimit = 100000

// Handler returns the query API mux, with paths rooted at /query, /rib,
// /index (mount under a prefix with http.StripPrefix).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/index", s.indexHandler)
	mux.HandleFunc("/query", s.queryHandler)
	mux.HandleFunc("/rib", s.ribHandler)
	return mux
}

func (s *Service) indexHandler(w http.ResponseWriter, r *http.Request) {
	st, err := s.Stats()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// parseTime accepts RFC 3339, unix seconds, or "now".
func parseTime(v string) (time.Time, error) {
	if v == "now" {
		return time.Now().UTC(), nil
	}
	if sec, err := strconv.ParseInt(v, 10, 64); err == nil {
		return time.Unix(sec, 0).UTC(), nil
	}
	return time.Parse(time.RFC3339, v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

// parseSelector reads the shared prefix/vp/limit parameters.
func parseSelector(r *http.Request) (prefix netip.Prefix, vp string, limit int, err error) {
	limit = DefaultLimit
	if v := r.URL.Query().Get("prefix"); v != "" {
		prefix, err = netip.ParsePrefix(v)
		if err != nil {
			return
		}
	}
	vp = r.URL.Query().Get("vp")
	if v := r.URL.Query().Get("limit"); v != "" {
		n, perr := strconv.Atoi(v)
		if perr != nil || n <= 0 {
			err = &strconv.NumError{Func: "limit", Num: v, Err: strconv.ErrSyntax}
			return
		}
		if n < limit {
			limit = n
		}
	}
	return
}

func (s *Service) queryHandler(w http.ResponseWriter, r *http.Request) {
	var q Query
	var err error
	if v := r.URL.Query().Get("from"); v != "" {
		if q.From, err = parseTime(v); err != nil {
			httpError(w, http.StatusBadRequest, "bad from: "+err.Error())
			return
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		if q.To, err = parseTime(v); err != nil {
			httpError(w, http.StatusBadRequest, "bad to: "+err.Error())
			return
		}
	}
	prefix, vp, limit, err := parseSelector(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	q.Prefix, q.VP = prefix, vp
	us, err := s.Query(q)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeUpdates(w, us, limit, map[string]any{})
}

func (s *Service) ribHandler(w http.ResponseWriter, r *http.Request) {
	atParam := r.URL.Query().Get("at")
	if atParam == "" {
		atParam = "now"
	}
	at, err := parseTime(atParam)
	if err != nil {
		httpError(w, http.StatusBadRequest, "bad at: "+err.Error())
		return
	}
	prefix, vp, limit, err := parseSelector(r)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	routes, err := s.RIBAt(at, prefix, vp)
	if err != nil {
		httpError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeUpdates(w, routes, limit, map[string]any{"at": at.Format(time.RFC3339)})
}

// writeUpdates renders updates as stream.Message objects under extra's
// envelope, truncating at limit.
func writeUpdates(w http.ResponseWriter, us []*update.Update, limit int, extra map[string]any) {
	truncated := false
	if len(us) > limit {
		us, truncated = us[:limit], true
	}
	msgs := make([]*stream.Message, len(us))
	for i, u := range us {
		msgs[i] = stream.ToMessage(u)
	}
	extra["count"] = len(msgs)
	extra["truncated"] = truncated
	extra["updates"] = msgs
	writeJSON(w, http.StatusOK, extra)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}
