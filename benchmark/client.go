package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is what one request produced, with every time relative to
// the start of its window.
type outcome struct {
	Req *request
	// Due is when the request should have gone out: its scheduled time
	// in an open loop, the moment a connection picked it in a closed one.
	// Latency and TTFT count from here, so a stall that delays later
	// sends is charged to them.
	Due, Sent, First, Last time.Duration
	Err                    string // non-empty: the operation failed
	// TimedOut: the daemon did not answer within requestDeadline. The run
	// stops there instead of waiting that long for every later request.
	TimedOut bool
	Gens     []generation
	// StepAt holds the arrival time of each NDJSON step line, and
	// FirstStepTokens the tokens the first of them carried.
	StepAt          []time.Duration
	FirstStepTokens int
}

// generation is one result object of a response.
type generation struct {
	Text        string  `json:"text"`
	Tokens      int     `json:"tokens"`
	Steps       int     `json:"steps"`
	SimulatedMS float64 `json:"simulated_ms"`
	Cached      bool    `json:"cached"`
}

func (o *outcome) ok() bool           { return o.Err == "" }
func (o *outcome) latencyMS() float64 { return ms(o.Last - o.Due) }
func (o *outcome) ttftMS() float64    { return ms(o.First - o.Due) }
func (o *outcome) lateMS() float64    { return ms(o.Sent - o.Due) }

func (o *outcome) tokens() int {
	n := 0
	for _, g := range o.Gens {
		n += g.Tokens
	}
	return n
}

// tpotMS is the time per output token after the first streamed step:
// (last line − first step line) ÷ tokens that arrived after that step.
// ok is false when the stream had a single step.
func (o *outcome) tpotMS() (v float64, ok bool) {
	rest := o.tokens() - o.FirstStepTokens
	if len(o.StepAt) < 2 || rest <= 0 {
		return 0, false
	}
	return ms(o.Last-o.First) / float64(rest), true
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// clock is the time source of a window; tests substitute a fake.
type clock interface {
	Now() time.Duration
	SleepUntil(t time.Duration)
}

type wallClock struct{ start time.Time }

func (c wallClock) Now() time.Duration { return time.Since(c.start) }
func (c wallClock) SleepUntil(t time.Duration) {
	if d := t - c.Now(); d > 0 {
		time.Sleep(d)
	}
}

// sendFunc performs one request and stamps Sent, First and Last from clk.
type sendFunc func(r *request, clk clock) outcome

// drive pushes reqs through conns connections, one request per
// connection at a time, in index order. In an open loop a connection
// waits for the request's due time — and sends at once when that time
// has already passed because every connection was busy; in a closed
// loop it sends as soon as it is free.
func drive(reqs []request, conns int, openLoop bool, clk clock, send sendFunc) []outcome {
	out := make([]outcome, len(reqs))
	var next atomic.Int64
	var wedged atomic.Bool
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				r := &reqs[i]
				if wedged.Load() {
					out[i] = outcome{Req: r, Err: "not sent: an earlier request got no answer"}
					continue
				}
				due := r.Due
				if openLoop {
					clk.SleepUntil(due)
				} else {
					due = clk.Now()
				}
				o := send(r, clk)
				o.Req, o.Due = r, due
				out[i] = o
				if o.TimedOut {
					wedged.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	return out
}

// requestDeadline bounds one exchange, body included: far beyond the
// slowest batch request (seconds), short enough that a daemon which
// accepts connections and never answers fails the run instead of
// hanging it.
const requestDeadline = 45 * time.Second

// httpSender posts to one vgend over a connection pool capped at the
// driver's connection count.
type httpSender struct {
	client *http.Client
	url    string
}

func newHTTPSender(addr string, conns int) *httpSender {
	tr := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &httpSender{
		client: &http.Client{Transport: tr, Timeout: requestDeadline},
		url:    "http://" + addr + "/v1/generate",
	}
}

func (s *httpSender) close() { s.client.CloseIdleConnections() }

type streamLine struct {
	Step   int         `json:"step"`
	Tokens int         `json:"tokens"`
	Done   bool        `json:"done"`
	Result *generation `json:"result"`
	Error  string      `json:"error"`
}

func (s *httpSender) send(r *request, clk clock) outcome {
	o := outcome{Sent: clk.Now()}
	fail := func(format string, args ...any) outcome {
		o.Err = fmt.Sprintf(format, args...)
		for _, a := range args {
			var ne net.Error
			if err, ok := a.(error); ok && errors.As(err, &ne) && ne.Timeout() {
				o.TimedOut = true
			}
		}
		o.Last = clk.Now()
		if o.First == 0 {
			o.First = o.Last
		}
		return o
	}
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(r.encode()))
	if err != nil {
		return fail("post: %v", err)
	}
	defer resp.Body.Close()
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(br, 512))
		return fail("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if r.Body.Stream {
		for {
			line, err := br.ReadBytes('\n')
			at := clk.Now()
			if len(line) > 0 {
				var sl streamLine
				if jerr := json.Unmarshal(line, &sl); jerr != nil {
					return fail("bad stream line: %v", jerr)
				}
				if o.First == 0 {
					o.First = at
				}
				switch {
				case sl.Error != "":
					return fail("stream error: %s", sl.Error)
				case sl.Done && sl.Result != nil:
					o.Gens = []generation{*sl.Result}
					o.Last = at
					return o
				case sl.Step > 0:
					o.StepAt = append(o.StepAt, at)
					if len(o.StepAt) == 1 {
						o.FirstStepTokens = sl.Tokens
					}
				}
			}
			if err != nil {
				return fail("stream ended without a final line: %v", err)
			}
		}
	}
	if _, err := br.Peek(1); err != nil {
		return fail("read: %v", err)
	}
	o.First = clk.Now()
	body, err := io.ReadAll(br)
	o.Last = clk.Now()
	if err != nil {
		return fail("read: %v", err)
	}
	if len(r.Body.Prompts) > 0 {
		var batch struct {
			Results []generation `json:"results"`
		}
		if err := json.Unmarshal(body, &batch); err != nil {
			return fail("bad batch body: %v", err)
		}
		if len(batch.Results) != len(r.Body.Prompts) {
			return fail("batch returned %d results for %d prompts", len(batch.Results), len(r.Body.Prompts))
		}
		o.Gens = batch.Results
		return o
	}
	var g generation
	if err := json.Unmarshal(body, &g); err != nil {
		return fail("bad body: %v", err)
	}
	o.Gens = []generation{g}
	return o
}
