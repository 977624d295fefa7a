package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
)

// maxBatchPrompts bounds one POST /v1/generate batch; bigger requests
// get a 400 instead of an unbounded task allocation.
const maxBatchPrompts = 128

// maxBodyBytes bounds one POST /v1/generate body; a bigger one gets a
// 413 instead of being decoded into memory. A full batch of
// maxBatchPrompts prompts at several KiB each fits with room to spare.
const maxBodyBytes = 1 << 20

// maxNewTokensCap bounds one generation's max_new_tokens; a bigger (or
// negative) value gets a 400. A decode's cost grows with its length,
// and it holds its batch slot until it finishes, so the wire must not
// let one request buy unbounded work or an unbounded slot. The cap sits well
// above every built-in model's default length (at most 2000 tokens)
// and above what any shipped client asks for.
const maxNewTokensCap = 4096

// maxTopK and maxTreeBudget bound a request's top_k and tree_budget for
// the same reason: every decoding step drafts top_k candidates per
// head position and grows a draft tree of up to tree_budget nodes, so
// a step's cost grows with both, and unbounded values let one request
// buy unbounded drafting work per step. The caps sit well above the
// defaults (top_k 3, a 96-node tree).
const (
	maxTopK       = 32
	maxTreeBudget = 1024
)

// Backend is what the HTTP layer serves: a single Engine or a
// multi-replica cluster.Fleet. Generation goes through the fail-fast
// submission paths (backpressure must surface, not block the handler);
// the health and metrics hooks let each backend report its own shape —
// the Engine keeps the exact pre-fleet bodies, a Fleet adds per-replica
// detail.
type Backend interface {
	TryGenerate(ctx context.Context, req Request) (*Response, error)
	TryGenerateBatch(ctx context.Context, reqs []Request) []*Response
	// Healthz returns the GET /healthz body; the handler adds uptime_s.
	Healthz() map[string]any
	// MetricsBody returns the GET /metrics JSON body; the handler adds
	// uptime_s.
	MetricsBody() map[string]any
	// WritePrometheusTo renders the GET /metrics text exposition.
	WritePrometheusTo(w io.Writer, uptimeS float64)
}

// Server exposes a Backend over HTTP: POST /v1/generate (single, batch
// and NDJSON streaming), GET /healthz, GET /metrics and — when tracing
// or pprof are enabled — the GET /debug/* surface. It is the handler
// core of cmd/vgend, kept here so httptest can exercise it.
type Server struct {
	backend Backend
	start   time.Time
	tracer  *trace.Tracer
	logger  *slog.Logger
	pprof   bool
}

// NewServer wraps a Backend (an Engine or a cluster.Fleet) for HTTP
// serving.
func NewServer(b Backend) *Server {
	return &Server{backend: b, start: time.Now()}
}

// WithTracer enables request tracing: every /v1/generate request is
// assembled into a span tree, recorded in the tracer's flight
// recorder, and exposed at /debug/requests; per-kind
// phase sums feed the vgend_phase_seconds_total metric family.
func (s *Server) WithTracer(t *trace.Tracer) *Server {
	s.tracer = t
	return s
}

// WithLogger enables structured request logging (one slog line per
// HTTP request, carrying the request ID).
func (s *Server) WithLogger(l *slog.Logger) *Server {
	s.logger = l
	return s
}

// WithPprof mounts net/http/pprof under /debug/pprof/.
func (s *Server) WithPprof(on bool) *Server {
	s.pprof = on
	return s
}

// Handler returns the route mux, wrapped in the request-ID/logging
// middleware so every response path — including 503 backpressure —
// carries the X-Request-ID header.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/generate", s.handleGenerate)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	if s.tracer != nil {
		mux.HandleFunc("/debug/requests", s.handleDebugRequests)
	}
	if s.pprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s.middleware(mux)
}

// GenerateRequest is the POST /v1/generate body. Exactly one of Prompt
// and Prompts must be set; a field it does not define is a 400.
type GenerateRequest struct {
	// Prompt decodes a single description.
	Prompt string `json:"prompt,omitempty"`
	// Prompts decodes a batch; results align index-for-index.
	Prompts []string `json:"prompts,omitempty"`
	// Strategy selects a decoding strategy by registry or display name
	// ("ntp", "medusa", "ours", "prompt-lookup", ...; see
	// core.StrategyListing). A request naming none decodes with the
	// serving model's own method (core.Options.ForModel).
	Strategy string `json:"strategy,omitempty"`
	// Temperature 0 decodes greedily.
	Temperature float64 `json:"temperature,omitempty"`
	// MaxNewTokens bounds the generation (0 = model default); negative
	// or above maxNewTokensCap is a 400.
	MaxNewTokens int `json:"max_new_tokens,omitempty"`
	// TopK is candidates per head position (0 = default 3); negative or
	// above maxTopK is a 400.
	TopK int `json:"top_k,omitempty"`
	// TreeBudget caps draft-tree nodes per decoding step for the tree
	// strategies (medusa-tree, lookup-tree, ours-tree); 0 selects the
	// decoder default. Negative or above maxTreeBudget is a 400. Linear
	// strategies ignore it.
	TreeBudget int `json:"tree_budget,omitempty"`
	// Seed fixes the sampling RNG; generations are deterministic given
	// (prompt, options, seed).
	Seed int64 `json:"seed,omitempty"`
	// Stream switches a single-prompt request to NDJSON: one line per
	// decoding step, then a final {"done":true,...} summary line.
	Stream bool `json:"stream,omitempty"`
	// Model routes the request to replicas serving the named backbone
	// in fleet mode ("codellama", "codet5p"); empty accepts any. An
	// unknown name is a 400.
	Model string `json:"model,omitempty"`
}

// GenerateResult is one generation in a response body.
type GenerateResult struct {
	Text         string  `json:"text"`
	Mode         string  `json:"mode"`
	Tokens       int     `json:"tokens"`
	Steps        int     `json:"steps"`
	MeanAccepted float64 `json:"mean_accepted"`
	SimulatedMS  float64 `json:"simulated_ms"`
	// TokensPerSecSim is clean tokens over simulated GPU time (the
	// paper's eq. 3); TokensPerSecWall is clean tokens over WallMS, the
	// decode's measured step time (0 on a cache hit, which ran no decode).
	TokensPerSecSim  float64 `json:"tokens_per_sec_sim"`
	TokensPerSecWall float64 `json:"tokens_per_sec_wall"`
	Cached           bool    `json:"cached"`
	WallMS           float64 `json:"wall_ms"`
	// QueueMS is the time this request spent queued before a batch slot
	// picked it up — with wall_ms it splits latency into queue vs
	// decode, which vgenc surfaces in its load summary. Omitted when the
	// backend recorded no wait (cache hits, refusals).
	QueueMS float64 `json:"queue_ms,omitempty"`
	// Replica names the fleet replica that served this generation
	// (omitted outside fleet mode, so single-engine responses are
	// byte-identical to the pre-fleet daemon's).
	Replica string `json:"replica,omitempty"`
}

func (gr GenerateRequest) options() (core.Options, error) {
	for _, f := range []struct {
		name   string
		v, max int
	}{
		{"max_new_tokens", gr.MaxNewTokens, maxNewTokensCap},
		{"top_k", gr.TopK, maxTopK},
		{"tree_budget", gr.TreeBudget, maxTreeBudget},
	} {
		if f.v < 0 || f.v > f.max {
			return core.Options{}, fmt.Errorf("%q must be in [0, %d], got %d", f.name, f.max, f.v)
		}
	}
	// Validate at the API edge so a typo is a 400, not a queued
	// request that fails at decode time.
	if gr.Strategy != "" {
		if _, err := core.ResolveStrategy(gr.Strategy); err != nil {
			return core.Options{}, err
		}
	}
	return core.Options{
		Strategy:     gr.Strategy,
		Temperature:  gr.Temperature,
		MaxNewTokens: gr.MaxNewTokens,
		TopK:         gr.TopK,
		TreeBudget:   gr.TreeBudget,
		Seed:         gr.Seed,
	}, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// resultJSON renders one response, labelled with the strategy that
// decoded it.
func resultJSON(resp *Response) GenerateResult {
	res := resp.Result
	return GenerateResult{
		Text:             res.Text,
		Mode:             resp.Strategy,
		Tokens:           len(res.CleanTokens),
		Steps:            res.Steps,
		MeanAccepted:     res.MeanAccepted(),
		SimulatedMS:      res.SimulatedMS,
		TokensPerSecSim:  res.TokensPerSecond(),
		TokensPerSecWall: ratio(float64(len(res.CleanTokens)), resp.Wall.Seconds()),
		Cached:           resp.Cached,
		WallMS:           float64(resp.Wall) / float64(time.Millisecond),
		QueueMS:          float64(resp.QueueWait) / float64(time.Millisecond),
		Replica:          resp.Replica,
	}
}

func (s *Server) handleGenerate(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, errors.New("POST only"))
		return
	}
	var gr GenerateRequest
	// An unknown field (a retired one, or a typo) is a 400 naming it,
	// not a silently different decode.
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&gr); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		writeError(w, status, fmt.Errorf("bad request body: %w", err))
		return
	}
	single := gr.Prompt != ""
	batch := len(gr.Prompts) > 0
	if single == batch {
		writeError(w, http.StatusBadRequest, errors.New(`set exactly one of "prompt" and "prompts"`))
		return
	}
	opts, err := gr.options()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	mkReq := func(prompt string, o core.Options) Request {
		return Request{Prompt: prompt, Options: o, Model: gr.Model}
	}

	switch {
	case gr.Stream && batch:
		writeError(w, http.StatusBadRequest, errors.New("streaming requires a single prompt"))
	case gr.Stream:
		s.streamGenerate(w, r, mkReq(gr.Prompt, opts))
	case single:
		resp, err := s.backend.TryGenerate(r.Context(), mkReq(gr.Prompt, opts))
		if err != nil {
			s.writeEngineError(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resultJSON(resp))
	default:
		if len(gr.Prompts) > maxBatchPrompts {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("batch of %d prompts exceeds the limit of %d", len(gr.Prompts), maxBatchPrompts))
			return
		}
		reqs := make([]Request, len(gr.Prompts))
		for i, p := range gr.Prompts {
			o := opts
			// Distinct default seeds per batch item: identical prompts
			// in one batch still explore, matching how a caller would
			// seed sequential requests.
			o.Seed += int64(i)
			reqs[i] = mkReq(p, o)
		}
		// Fail-fast enqueue: batches obey the same queue bound as
		// single requests instead of blocking past it.
		resps := s.backend.TryGenerateBatch(r.Context(), reqs)
		results := make([]GenerateResult, 0, len(resps))
		for _, resp := range resps {
			if resp.Err != nil {
				s.writeEngineError(w, resp.Err)
				return
			}
			results = append(results, resultJSON(resp))
		}
		writeJSON(w, http.StatusOK, map[string][]GenerateResult{"results": results})
	}
}

// writeSubmissionError maps the submission-refusal errors shared by
// the JSON and streaming paths — queue-full backpressure (503 with a
// Retry-After header, the contract load balancers and polite clients
// expect) and unknown model (400) — and reports whether it owned the
// error. These are exactly the failures that occur before any response
// bytes exist, so the streaming handler can reuse the mapping verbatim.
func writeSubmissionError(w http.ResponseWriter, err error) bool {
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, ErrUnknownModel):
		writeError(w, http.StatusBadRequest, err)
	default:
		return false
	}
	return true
}

// writeEngineError maps engine/fleet submission errors to HTTP
// statuses: the shared submission refusals (see writeSubmissionError),
// then client cancellation as 499 (nginx's convention), the rest 500.
func (s *Server) writeEngineError(w http.ResponseWriter, err error) {
	switch {
	case writeSubmissionError(w, err):
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// 499: client went away (nginx's convention for closed requests).
		writeError(w, 499, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

// streamLine is one NDJSON line of a streaming response.
type streamLine struct {
	Step   int             `json:"step,omitempty"`
	Text   string          `json:"text,omitempty"`
	Tokens int             `json:"tokens,omitempty"`
	Done   bool            `json:"done,omitempty"`
	Result *GenerateResult `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (s *Server) streamGenerate(w http.ResponseWriter, r *http.Request, req Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.Header().Set("X-Accel-Buffering", "no")
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	req.OnStep = func(ev core.StepEvent) {
		// Runs on an engine worker goroutine. Safe: for streaming
		// requests TryGenerate does not return — even when the client
		// disconnects mid-decode — until the decode is finished and
		// this callback can no longer fire, so the handler goroutine
		// never writes concurrently and the ResponseWriter never
		// outlives the handler.
		_ = enc.Encode(streamLine{Step: ev.Step, Text: ev.Text, Tokens: len(ev.Tokens)})
		if flusher != nil {
			flusher.Flush()
		}
	}
	resp, err := s.backend.TryGenerate(r.Context(), req)
	if err != nil {
		// Submission refusals happen before anything streamed, so a
		// clean status response is still possible; anything else is
		// reported as a final NDJSON error line.
		if !writeSubmissionError(w, err) {
			_ = enc.Encode(streamLine{Done: true, Error: err.Error()})
		}
		return
	}
	out := resultJSON(resp)
	_ = enc.Encode(streamLine{Done: true, Result: &out})
	if flusher != nil {
		flusher.Flush()
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	body := s.backend.Healthz()
	body["uptime_s"] = time.Since(s.start).Seconds()
	writeJSON(w, http.StatusOK, body)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	uptime := time.Since(s.start).Seconds()
	// Prometheus text exposition on request (?format=prometheus or an
	// Accept header a scraper would send); JSON stays the default.
	if wantsPrometheus(r.URL.Query().Get("format"), r.Header.Get("Accept")) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.backend.WritePrometheusTo(w, uptime)
		s.writePhasePrometheus(w)
		return
	}
	body := s.backend.MetricsBody()
	body["uptime_s"] = uptime
	if s.tracer != nil {
		body["phase_seconds"] = s.tracer.PhaseSeconds()
		body["traces_started"] = s.tracer.TracesStarted()
	}
	writeJSON(w, http.StatusOK, body)
}
