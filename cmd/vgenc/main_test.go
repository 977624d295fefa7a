package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// TestParseRetryAfter covers the header grammar RFC 9110 allows:
// delay-seconds, an HTTP-date, and the garbage a middlebox might
// substitute — which must fall back, never spin or stall forever.
func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 7, 30, 12, 0, 0, 0, time.UTC)
	fallback := 250 * time.Millisecond
	cases := []struct {
		value string
		want  time.Duration
	}{
		{"", fallback},
		{"0", 0},
		{"3", 3 * time.Second},
		{" 7 ", 7 * time.Second},
		{"-2", 0}, // negative delay: retry now
		{now.Add(2 * time.Second).UTC().Format(http.TimeFormat), 2 * time.Second},
		{now.Add(-time.Minute).UTC().Format(http.TimeFormat), 0}, // past date: retry now
		{"soon", fallback},
		{"1.5", fallback}, // fractional seconds are not in the grammar
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.value, now, fallback); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.value, got, c.want)
		}
	}
}

// TestReplayHonoursRetryAfter drives replayOne against a server that
// sheds twice with Retry-After before answering: the client must
// resubmit exactly per header and succeed.
func TestReplayHonoursRetryAfter(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch calls.Add(1) {
		case 1:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "shed"})
		case 2:
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			_ = json.NewEncoder(w).Encode(map[string]string{"error": "queue full"})
		default:
			_ = json.NewEncoder(w).Encode(map[string]any{"text": "module m; endmodule"})
		}
	}))
	defer srv.Close()

	res := replayOne(srv.Client(), srv.URL, generateRequest{Prompt: "p"}, 5)
	if !res.ok {
		t.Fatal("replay did not succeed")
	}
	if res.retries != 2 {
		t.Fatalf("retries = %d, want 2", res.retries)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestStreamShedAfterPartialOutputIsFailedAttempt pins the stream-mode
// retry accounting: a shed that arrives after step lines are already on
// the wire — as a 429 status with a partial NDJSON body, or as an
// in-stream error line under a 200 — is a failed attempt to back off
// and resubmit, never a success. A bare done line without a result must
// not pass for one either.
func TestStreamShedAfterPartialOutputIsFailedAttempt(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		switch calls.Add(1) {
		case 1:
			// Shed status, but with partial stream output in the body.
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = enc.Encode(map[string]any{"step": 1, "text": "module m"})
			_ = enc.Encode(map[string]any{"step": 2, "text": "module m;"})
		case 2:
			// 200 with steps, then the shed arrives as a final error line.
			_ = enc.Encode(map[string]any{"step": 1, "text": "module m"})
			_ = enc.Encode(map[string]any{"done": true, "error": "serve: request queue full"})
		default:
			_ = enc.Encode(map[string]any{"step": 1, "text": "module m"})
			_ = enc.Encode(map[string]any{"done": true, "result": map[string]any{"text": "module m; endmodule"}})
		}
	}))
	defer srv.Close()

	res := replayOne(srv.Client(), srv.URL, generateRequest{Prompt: "p", Stream: true}, 5)
	if !res.ok {
		t.Fatal("replay did not succeed after shed attempts")
	}
	if res.retries != 2 {
		t.Fatalf("retries = %d, want 2 (both partial-output sheds must count as failed attempts)", res.retries)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("server saw %d calls, want 3", got)
	}
}

// TestStreamWithoutResultLineIsNotSuccess pins the other half of the
// accounting: partial output followed by a silent end of stream (no
// done line at all) is a terminal failure, not a delivered generation.
func TestStreamWithoutResultLineIsNotSuccess(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		enc := json.NewEncoder(w)
		_ = enc.Encode(map[string]any{"step": 1, "text": "module m"})
		_ = enc.Encode(map[string]any{"step": 2, "text": "module m;"})
	}))
	defer srv.Close()

	res := replayOne(srv.Client(), srv.URL, generateRequest{Prompt: "p", Stream: true}, 5)
	if res.ok {
		t.Fatal("replay claimed success from a stream that never delivered a result line")
	}
	if res.retries != 0 {
		t.Fatalf("retries = %d, want 0 (a broken stream is terminal, not a shed)", res.retries)
	}
}

// TestReplayGivesUpAtMaxRetries pins the bound: a permanently shedding
// server must not be hammered past -max-retries.
func TestReplayGivesUpAtMaxRetries(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.Header().Set("Retry-After", "0")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer srv.Close()

	res := replayOne(srv.Client(), srv.URL, generateRequest{Prompt: "p"}, 2)
	if res.ok {
		t.Fatal("replay claimed success from a shedding server")
	}
	if res.retries != 2 {
		t.Fatalf("retries = %d, want 2", res.retries)
	}
	if got := calls.Load(); got != 3 { // initial + 2 retries
		t.Fatalf("server saw %d calls, want 3", got)
	}
}
