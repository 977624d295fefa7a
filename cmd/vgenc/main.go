// Command vgenc is a minimal load client for the vgend daemon: it
// replays a prompt workload over POST /v1/generate with bounded
// concurrency, and — unlike a naive loop — honours the Retry-After
// header of every 503 (vgend's full queue) and 429 (which a proxy in
// front of it may send), backing off exactly as long as the server
// asked before resubmitting.
//
// Usage:
//
//	vgenc [-addr http://localhost:8080] [-n 2] [-c 4] [-strategy NAME]
//	      [-model NAME] [-tree-budget N] [-max-retries 5] [-timeout 30s]
//	      [-stream] [prompt ...]
//
// Prompts come from the arguments; with none, a built-in shared-stem
// workload (the PrefixBench families) is replayed — the traffic shape
// the daemon's prefix caches and affinity routing are built for. -n
// repeats the whole list with fresh seeds; -c bounds in-flight
// requests. -stream consumes responses as NDJSON. vgend sheds a
// streamed request with a 503 before any body byte, like any other; an
// error line inside a 200 stream is a terminal failed attempt — never
// a success, never resubmitted. Every request
// decodes to its model's natural end (a generation stops at
// endmodule), so decode length is set by the prompt, the strategy and
// the seed. Exit status is non-zero if any request ultimately failed.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// generateRequest mirrors the serve.GenerateRequest fields vgenc uses.
type generateRequest struct {
	Prompt     string `json:"prompt"`
	Strategy   string `json:"strategy,omitempty"`
	Model      string `json:"model,omitempty"`
	TreeBudget int    `json:"tree_budget,omitempty"`
	Seed       int64  `json:"seed,omitempty"`
	Stream     bool   `json:"stream,omitempty"`
}

// ndjsonLine is one line of a streaming response — the subset of the
// server's streamLine the client needs to classify an attempt.
type ndjsonLine struct {
	Done   bool            `json:"done,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// generateResult is the subset of the server's per-generation timing
// the client folds into its load summary: queue wait vs decode wall.
type generateResult struct {
	WallMS  float64 `json:"wall_ms"`
	QueueMS float64 `json:"queue_ms"`
}

// requestIDHeader is echoed by the server on every response — including
// sheds — and keys the request's trace in the server's flight recorder,
// so a failure printed with its ID is debuggable server-side via
// /debug/requests?id=<ID>.
const requestIDHeader = "X-Request-ID"

// reqID formats a response's request ID for failure diagnostics.
func reqID(id string) string {
	if id == "" {
		return ""
	}
	return " (request " + id + ")"
}

// defaultBackoff is the wait applied when a shed response carries no
// parseable Retry-After header (the daemon always sends one, but the
// client must not spin if a proxy strips it).
const defaultBackoff = time.Second

// parseRetryAfter interprets a Retry-After header value: delay-seconds
// ("3") or an HTTP-date, per RFC 9110 §10.2.3. Unparseable or missing
// values fall back to fallback; past dates and negative delays clamp
// to zero (retry immediately — the server's moment has passed).
func parseRetryAfter(value string, now time.Time, fallback time.Duration) time.Duration {
	value = strings.TrimSpace(value)
	if value == "" {
		return fallback
	}
	if secs, err := strconv.Atoi(value); err == nil {
		if secs < 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if at, err := http.ParseTime(value); err == nil {
		d := at.Sub(now)
		if d < 0 {
			return 0
		}
		return d
	}
	return fallback
}

// workload is the built-in shared-stem prompt set (PrefixBench's
// families, inlined so the client has no dependency on the repo's
// internal packages).
func workload() []string {
	stems := []string{
		"Please act as a professional Verilog designer. Create a synchronous FIFO named fifo_unit with clock clk, reset rst, write enable wen and read enable ren",
		"Please act as a professional Verilog designer. Create a module named alu_unit that takes two 8-bit operands a and b and an opcode op",
		"Please act as a professional Verilog designer. Create an up-down counter named cnt_unit with clock clk, reset rst and direction input dir",
	}
	tails := []string{"and a %d-bit data path.", "with a depth of %d entries."}
	var out []string
	for _, stem := range stems {
		for v, tail := range tails {
			out = append(out, stem+" "+fmt.Sprintf(tail, 4+v))
		}
	}
	return out
}

// result is one request's outcome.
type result struct {
	ok      bool
	retries int
	wall    time.Duration
	// queueMS/decodeMS are the server-reported phase split for the
	// winning attempt (zero against servers that predate queue_ms).
	queueMS  float64
	decodeMS float64
}

// attemptOutcome classifies one HTTP exchange.
type attemptOutcome int

const (
	attemptOK   attemptOutcome = iota // final result received
	attemptShed                       // 429 or 503: back off and resubmit
	attemptFail                       // terminal: transport error, bad status, broken stream
)

// attemptResult is one HTTP exchange's verdict: the outcome, the
// backoff hint for sheds, the server-echoed request ID (printed with
// failures so the operator can pull the request's trace from the
// daemon's /debug/requests?id=), and the server-reported phase timings
// on success.
type attemptResult struct {
	outcome  attemptOutcome
	backoff  time.Duration
	id       string
	queueMS  float64
	decodeMS float64
}

// attemptOnce performs one HTTP exchange and classifies it. A 429/503
// status is a shed, streamed or not: the status precedes any body. For
// a 200 stream the verdict must look past partial output: step lines
// already received do NOT make the attempt a success — a final NDJSON
// error line or a stream that ends without a result line means the
// generation was not delivered, however many bytes preceded the
// failure. Only an explicit final result line counts.
func attemptOnce(client *http.Client, addr string, req generateRequest) attemptResult {
	body, _ := json.Marshal(req)
	resp, err := client.Post(addr+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		fmt.Fprintf(os.Stderr, "vgenc: %v\n", err)
		return attemptResult{outcome: attemptFail}
	}
	defer resp.Body.Close()
	id := resp.Header.Get(requestIDHeader)
	backoff := parseRetryAfter(resp.Header.Get("Retry-After"), time.Now(), defaultBackoff)

	if !req.Stream {
		switch resp.StatusCode {
		case http.StatusOK:
			var out generateResult
			_ = json.NewDecoder(resp.Body).Decode(&out)
			_, _ = io.Copy(io.Discard, resp.Body)
			return attemptResult{outcome: attemptOK, id: id, queueMS: out.QueueMS, decodeMS: out.WallMS}
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			_, _ = io.Copy(io.Discard, resp.Body)
			return attemptResult{outcome: attemptShed, backoff: backoff, id: id}
		default:
			_, _ = io.Copy(io.Discard, resp.Body)
			fmt.Fprintf(os.Stderr, "vgenc: status %d%s\n", resp.StatusCode, reqID(id))
			return attemptResult{outcome: attemptFail, id: id}
		}
	}

	// Streaming: drain the NDJSON body before judging anything, keeping
	// only the final done line. The step-line count matters solely for
	// diagnostics — partial output is not a result.
	var final ndjsonLine
	sawDone, steps := false, 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var l ndjsonLine
		if json.Unmarshal(line, &l) != nil {
			continue
		}
		if l.Done {
			final, sawDone = l, true
		} else {
			steps++
		}
	}
	switch {
	case resp.StatusCode == http.StatusTooManyRequests, resp.StatusCode == http.StatusServiceUnavailable:
		return attemptResult{outcome: attemptShed, backoff: backoff, id: id}
	case resp.StatusCode != http.StatusOK:
		fmt.Fprintf(os.Stderr, "vgenc: status %d%s\n", resp.StatusCode, reqID(id))
		return attemptResult{outcome: attemptFail, id: id}
	case sawDone && final.Error == "" && final.Result != nil:
		var out generateResult
		_ = json.Unmarshal(final.Result, &out)
		return attemptResult{outcome: attemptOK, id: id, queueMS: out.QueueMS, decodeMS: out.WallMS}
	case sawDone:
		fmt.Fprintf(os.Stderr, "vgenc: stream error after %d steps: %s%s\n", steps, final.Error, reqID(id))
		return attemptResult{outcome: attemptFail, id: id}
	default:
		fmt.Fprintf(os.Stderr, "vgenc: stream ended after %d steps without a result line%s\n", steps, reqID(id))
		return attemptResult{outcome: attemptFail, id: id}
	}
}

// replayOne submits one generation, backing off per Retry-After on shed
// responses — a 429/503 status — up to maxRetries resubmissions.
func replayOne(client *http.Client, addr string, req generateRequest, maxRetries int) result {
	start := time.Now()
	var res result
	for {
		a := attemptOnce(client, addr, req)
		switch a.outcome {
		case attemptOK:
			res.ok = true
			res.queueMS, res.decodeMS = a.queueMS, a.decodeMS
		case attemptShed:
			if res.retries < maxRetries {
				res.retries++
				time.Sleep(a.backoff)
				continue
			}
			fmt.Fprintf(os.Stderr, "vgenc: gave up after %d retries%s\n", res.retries, reqID(a.id))
		}
		res.wall = time.Since(start)
		return res
	}
}

// percentile returns the element at rank p·(n−1), rounded down, of n
// sorted values (the zero value if there are none).
func percentile[T any](sorted []T, p float64) T {
	if len(sorted) == 0 {
		var zero T
		return zero
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func main() {
	addr := flag.String("addr", "http://localhost:8080", "vgend base URL")
	n := flag.Int("n", 2, "repeats of the whole prompt list (fresh seeds per repeat)")
	c := flag.Int("c", 4, "concurrent in-flight requests")
	strategy := flag.String("strategy", "", "decoding strategy to request (empty: the serving model's own method)")
	modelName := flag.String("model", "", "backbone to request in fleet mode")
	treeBudget := flag.Int("tree-budget", 0, "draft-tree node budget to request (0: server default)")
	maxRetries := flag.Int("max-retries", 5, "resubmissions per request after shed responses")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request HTTP timeout")
	stream := flag.Bool("stream", false, "request NDJSON streaming responses")
	flag.Parse()

	prompts := flag.Args()
	if len(prompts) == 0 {
		prompts = workload()
	}
	var reqs []generateRequest
	for rep := 0; rep < *n; rep++ {
		for i, p := range prompts {
			reqs = append(reqs, generateRequest{
				Prompt: p, Strategy: *strategy, Model: *modelName, TreeBudget: *treeBudget,
				Seed: int64(rep*1000 + i), Stream: *stream,
			})
		}
	}

	client := &http.Client{Timeout: *timeout}
	sem := make(chan struct{}, max(*c, 1))
	results := make([]result, len(reqs))
	var wg sync.WaitGroup
	start := time.Now()
	for i, req := range reqs {
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			results[i] = replayOne(client, strings.TrimRight(*addr, "/"), req, *maxRetries)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var ok, failed int
	var retries int
	var walls []time.Duration
	var queueMS, decodeMS []float64
	for _, r := range results {
		if r.ok {
			ok++
			walls = append(walls, r.wall)
			queueMS = append(queueMS, r.queueMS)
			decodeMS = append(decodeMS, r.decodeMS)
		} else {
			failed++
		}
		retries += r.retries
	}
	sort.Slice(walls, func(i, j int) bool { return walls[i] < walls[j] })
	sort.Float64s(queueMS)
	sort.Float64s(decodeMS)
	fmt.Printf("requests=%d ok=%d failed=%d retries=%d elapsed=%s rps=%.1f p50=%s p95=%s p99=%s\n",
		len(reqs), ok, failed, retries, elapsed.Round(time.Millisecond),
		float64(ok)/elapsed.Seconds(),
		percentile(walls, 0.50).Round(time.Millisecond), percentile(walls, 0.95).Round(time.Millisecond),
		percentile(walls, 0.99).Round(time.Millisecond))
	// The server-reported phase split: where successful requests spent
	// their time — queued behind the batch, or decoding. Zeros mean the
	// server predates the queue_ms response field.
	fmt.Printf("phases: queue p50=%.2fms p95=%.2fms | decode p50=%.2fms p95=%.2fms\n",
		percentile(queueMS, 0.50), percentile(queueMS, 0.95),
		percentile(decodeMS, 0.50), percentile(decodeMS, 0.95))
	if failed > 0 {
		os.Exit(1)
	}
}
