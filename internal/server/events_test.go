package server

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	otrace "repro/internal/obs/trace"
)

type sseEvent struct {
	name string
	data string
}

// readSSE parses one Server-Sent Events stream until a terminal job
// event (done/failed/canceled) or EOF.
func readSSE(t *testing.T, body io.Reader) []sseEvent {
	t.Helper()
	var events []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			cur.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if cur.name != "" {
				events = append(events, cur)
				if TerminalState(cur.name) {
					return events
				}
			}
			cur = sseEvent{}
		}
	}
	return events
}

func TestJobEventsStreamsProgress(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:      1,
		MaxInsts:     -1,
		ProgressPoll: 2 * time.Millisecond,
		// Publish every 2k instructions so even short phases are
		// observable through the poll loop.
		ProgressInterval: 2048,
	})
	const insts = 1_500_000
	resp, st := submit(t, ts, JobRequest{Workload: "gcc2k", Predictor: "composite", Insts: insts})
	resp.Body.Close()
	if st.ID == "" {
		t.Fatalf("submit returned no job id (status %d)", resp.StatusCode)
	}

	sresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + st.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}
	events := readSSE(t, sresp.Body)
	if len(events) < 3 {
		t.Fatalf("stream delivered %d events, want at least initial + progress + terminal: %+v", len(events), events)
	}

	switch events[0].name {
	case "queued", "started":
	default:
		t.Errorf("first event %q, want queued or started", events[0].name)
	}
	last := events[len(events)-1]
	if last.name != "done" {
		t.Fatalf("terminal event %q (data %s), want done", last.name, last.data)
	}
	var final JobStatus
	if err := json.Unmarshal([]byte(last.data), &final); err != nil {
		t.Fatalf("terminal event payload: %v", err)
	}
	if final.Result == nil || final.Result.Instructions != insts {
		t.Errorf("terminal event result = %+v, want %d instructions", final.Result, insts)
	}

	// At least one mid-run progress event, and at least one from the
	// configured-run phase carrying per-component predictor telemetry.
	var progress, midRun, runPhase int
	for _, e := range events {
		if e.name != "progress" {
			continue
		}
		progress++
		var pv ProgressView
		if err := json.Unmarshal([]byte(e.data), &pv); err != nil {
			t.Fatalf("progress payload %q: %v", e.data, err)
		}
		if pv.TotalInstructions != insts {
			t.Errorf("progress total = %d, want %d", pv.TotalInstructions, insts)
		}
		if pv.Instructions > 0 && pv.Instructions < insts {
			midRun++
		}
		if pv.Phase == "run" && len(pv.Components) > 0 {
			runPhase++
			var used uint64
			for _, c := range pv.Components {
				if c.Name == "" {
					t.Errorf("unnamed component in %+v", pv.Components)
				}
				used += c.Used + c.Correct + c.Incorrect
			}
			if used == 0 {
				t.Errorf("run-phase components all zero: %+v", pv.Components)
			}
		}
	}
	if progress == 0 || midRun == 0 {
		t.Errorf("saw %d progress events (%d mid-run), want both > 0", progress, midRun)
	}
	if runPhase == 0 {
		t.Error("no run-phase progress event carried component telemetry")
	}
}

func TestJobEventsUnknownJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/v1/jobs/nope/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

func TestJobJoinsSubmitterTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	parent := otrace.SpanContext{TraceID: "00000000000000000000000000abcdef", SpanID: "00000000000000ab"}
	body := strings.NewReader(`{"workload": "gcc2k", "predictor": "lvp", "insts": 20000}`)
	req, _ := http.NewRequest("POST", ts.URL+"/v1/jobs", body)
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(otrace.TraceparentHeader, parent.Traceparent())
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get(otrace.TraceIDHeader); got != parent.TraceID {
		t.Errorf("X-Trace-Id = %q, want %q", got, parent.TraceID)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	final := waitState(t, ts, st.ID, 30*time.Second, StateDone)
	if final.TraceID != parent.TraceID {
		t.Fatalf("job trace id = %q, want submitter's %q", final.TraceID, parent.TraceID)
	}

	// The exported Chrome trace holds the whole story: the HTTP submit
	// span and the worker-side job/baseline/run spans, one trace.
	tresp, err := ts.Client().Get(ts.URL + "/debug/traces/" + parent.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("trace export status %d", tresp.StatusCode)
	}
	raw, _ := io.ReadAll(tresp.Body)
	var chrome struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &chrome); err != nil {
		t.Fatalf("trace export is not Chrome JSON: %v", err)
	}
	want := map[string]bool{"POST /v1/jobs": false, "job": false, "baseline": false, "run": false}
	for _, e := range chrome.TraceEvents {
		if _, ok := want[e.Name]; ok && e.Ph == "X" {
			want[e.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("trace %s is missing span %q:\n%s", parent.TraceID, name, raw)
		}
	}
}

func TestReadyzTracksDrain(t *testing.T) {
	cfg := Config{Workers: 1, Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	get := func() int {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get(); code != http.StatusOK {
		t.Errorf("ready server /readyz = %d, want 200", code)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	if code := get(); code != http.StatusServiceUnavailable {
		t.Errorf("drained server /readyz = %d, want 503", code)
	}
	// Liveness stays green through the drain: /healthz answers 200 as
	// long as the process can serve at all.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Errorf("/healthz after drain = %d, want 200 (liveness)", hresp.StatusCode)
	}
}
