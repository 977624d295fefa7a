package serve

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"time"

	"repro/internal/trace"
)

// This file is the server's debuggability surface: the request-ID
// middleware (every response path, including 503 backpressure, carries
// X-Request-ID), per-request trace assembly for
// /v1/generate, structured request logging, the /debug/requests
// flight-recorder endpoint, and the per-phase duration metric family
// fed by the tracer.

// RequestIDHeader is the request/trace correlation header. A caller may
// supply its own ID; otherwise the server mints one. The header is
// echoed on every response, and in tracing mode the same ID keys the
// request's trace in the flight recorder (/debug/requests?id=...).
const RequestIDHeader = "X-Request-ID"

// statusWriter records the status code the handler chain wrote so the
// middleware can log it and close the request trace with it. It
// forwards Flush so NDJSON streaming keeps working through the wrap.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// middleware is the outermost handler layer: request-ID assignment and
// echo, trace creation around /v1/generate, and one structured log
// line per request. The ID header is set before the inner handler
// runs, so every response path — success, backpressure, panic-free
// error — carries it.
func (s *Server) middleware(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(RequestIDHeader)
		if id == "" {
			id = trace.NewID()
		}
		w.Header().Set(RequestIDHeader, id)
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		if s.tracer != nil && r.URL.Path == "/v1/generate" {
			tr := s.tracer.StartTrace(id)
			root := tr.Start(nil, trace.KindRequest, r.URL.Path)
			root.SetAttr("method", r.Method)
			ctx := trace.ContextWithSpan(trace.NewContext(r.Context(), tr), root)
			next.ServeHTTP(sw, r.WithContext(ctx))
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
			root.SetAttrInt("status", int64(sw.status))
			root.End()
			tr.Finish(strconv.Itoa(sw.status))
		} else {
			next.ServeHTTP(sw, r)
			if sw.status == 0 {
				sw.status = http.StatusOK
			}
		}
		if s.logger != nil {
			s.logger.Info("request",
				"id", id,
				"method", r.Method,
				"path", r.URL.Path,
				"status", sw.status,
				"dur_ms", float64(time.Since(start))/float64(time.Millisecond),
			)
		}
	})
}

// debugRequestSummary is one row of the GET /debug/requests listing.
type debugRequestSummary struct {
	ID         string  `json:"id"`
	Status     string  `json:"status"`
	Start      string  `json:"start"`
	DurationMS float64 `json:"duration_ms"`
	Spans      int     `json:"spans"`
	Dropped    int64   `json:"dropped_spans,omitempty"`
}

// handleDebugRequests lists the flight recorder's contents (the last N
// completed request traces plus the always-retained slowest-K), or with
// ?id= returns one trace in full: the raw snapshot under "trace" and a
// rendered tree under "tree", enough to reconstruct a request's whole
// dispatch/queue/decode history from this endpoint alone.
func (s *Server) handleDebugRequests(w http.ResponseWriter, r *http.Request) {
	if id := r.URL.Query().Get("id"); id != "" {
		snap, ok := s.tracer.Lookup(id)
		if !ok {
			writeError(w, http.StatusNotFound, fmt.Errorf("no recorded trace %q", id))
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"trace": snap,
			"tree":  snap.Tree(),
		})
		return
	}
	snaps := s.tracer.Completed()
	rows := make([]debugRequestSummary, 0, len(snaps))
	for _, sn := range snaps {
		rows = append(rows, debugRequestSummary{
			ID:         sn.ID,
			Status:     sn.Status,
			Start:      sn.Start.Format(time.RFC3339Nano),
			DurationMS: sn.DurationMS,
			Spans:      len(sn.Spans),
			Dropped:    sn.Dropped,
		})
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"requests":       rows,
		"traces_started": s.tracer.TracesStarted(),
	})
}

// writePhasePrometheus appends the tracer-fed per-phase duration family
// to the text exposition. Phases are span kinds (queue, decode, draft,
// verify, ...); the family only exists in tracing mode, so the
// tracing-off exposition stays byte-identical to the pre-trace daemon.
func (s *Server) writePhasePrometheus(w io.Writer) {
	if s.tracer == nil {
		return
	}
	phases := s.tracer.PhaseSeconds()
	fmt.Fprintf(w, "# HELP vgend_phase_seconds_total Cumulative wall seconds per traced request phase (span kind).\n# TYPE vgend_phase_seconds_total counter\n")
	keys := make([]string, 0, len(phases))
	for k := range phases {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "vgend_phase_seconds_total{phase=%q} %g\n", k, phases[k])
	}
}
