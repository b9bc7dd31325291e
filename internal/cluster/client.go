package cluster

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	otrace "repro/internal/obs/trace"
	"repro/internal/server"
)

// errShed marks a worker's 429: the worker is healthy but its queue is
// full, so the attempt is retryable without blaming the worker.
var errShed = errors.New("worker shed the job (queue full)")

// permanentError marks a failure no retry can fix (the worker rejected
// the spec as invalid); the point fails immediately.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// workerError marks a transport-level or server-side failure that
// counts against the worker's circuit breaker.
type workerError struct{ err error }

func (e *workerError) Error() string { return e.err.Error() }
func (e *workerError) Unwrap() error { return e.err }

// apiClient drives one stock lvpd worker through its public HTTP API.
type apiClient struct {
	base string
	hc   *http.Client

	// apiKey, when set, authenticates every request (Authorization:
	// Bearer). tenantName, when set, attributes the work to that tenant
	// via X-Lvpd-Tenant — the worker honors it only for Proxy-flagged
	// keys.
	apiKey     string
	tenantName string
}

// workerClient builds the API client for one worker URL: the
// coordinator's worker credential plus, in multi-tenant mode, the
// sweep's tenant attribution (nil sw or single-tenant mode sends no
// attribution header, so open workers stay compatible).
func (c *Coordinator) workerClient(url string, sw *sweep) apiClient {
	cl := apiClient{base: url, hc: c.hc, apiKey: c.cfg.WorkerAPIKey}
	if sw != nil && !c.tenants.Open() {
		cl.tenantName = sw.tenant
	}
	return cl
}

// errorMessage extracts the {"error": ...} envelope, falling back to
// the raw body.
func errorMessage(body []byte) string {
	var e struct {
		Error string `json:"error"`
	}
	if json.Unmarshal(body, &e) == nil && e.Error != "" {
		return e.Error
	}
	return string(bytes.TrimSpace(body))
}

// maxResponseBytes bounds what the coordinator buffers of one worker
// response: a whole JSON body, or one event of a job's event stream.
const maxResponseBytes = 1 << 22

// newRequest builds a request to the worker carrying the coordinator's
// credential, the sweep's tenant attribution, and the caller's trace.
func (a apiClient) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, a.base+path, body)
	if err != nil {
		return nil, err
	}
	if a.apiKey != "" {
		req.Header.Set("Authorization", "Bearer "+a.apiKey)
	}
	if a.tenantName != "" {
		req.Header.Set("X-Lvpd-Tenant", a.tenantName)
	}
	// Propagate the caller's trace (a dispatch span, typically) so the
	// worker's spans join it; a no-op when ctx carries none.
	otrace.Inject(req)
	return req, nil
}

func (a apiClient) do(ctx context.Context, method, path string, body any) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return 0, nil, err
		}
		rd = bytes.NewReader(b)
	}
	req, err := a.newRequest(ctx, method, path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return 0, nil, &workerError{err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return resp.StatusCode, nil, &workerError{err}
	}
	return resp.StatusCode, b, nil
}

// putTrace uploads a recorded-trace artifact to the worker under its
// content address. Unlike the other calls, the body is the raw encoded
// artifact, not JSON.
func (a apiClient) putTrace(ctx context.Context, hash string, data []byte) error {
	req, err := a.newRequest(ctx, http.MethodPut, "/v1/traces/"+hash, bytes.NewReader(data))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := a.hc.Do(req)
	if err != nil {
		return &workerError{err}
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	if resp.StatusCode != http.StatusNoContent {
		return &workerError{fmt.Errorf("trace upload returned %d: %s", resp.StatusCode, errorMessage(body))}
	}
	return nil
}

// submitJob posts one canonical spec to the worker and returns the
// created (or cache-answered) job status.
func (a apiClient) submitJob(ctx context.Context, req server.JobRequest) (server.JobStatus, error) {
	var st server.JobStatus
	code, body, err := a.do(ctx, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		return st, err
	}
	switch {
	case code == http.StatusOK || code == http.StatusAccepted:
		if err := json.Unmarshal(body, &st); err != nil {
			return st, &workerError{fmt.Errorf("undecodable submit response: %w", err)}
		}
		return st, nil
	case code == http.StatusTooManyRequests:
		return st, errShed
	case code == http.StatusBadRequest:
		// The worker rejected the spec itself; retrying elsewhere cannot
		// help (workers share the validation code).
		return st, &permanentError{fmt.Sprintf("worker rejected spec: %s", errorMessage(body))}
	default:
		return st, &workerError{fmt.Errorf("submit returned %d: %s", code, errorMessage(body))}
	}
}

// terminal reports whether a job state is final. The event stream
// names its terminal events after these states.
func terminal(state string) bool {
	return state == server.StateDone || state == server.StateFailed || state == server.StateCanceled
}

// followJob follows the job's event stream (GET /v1/jobs/{id}/events)
// until its terminal event and returns the JobStatus that event
// carries, result included. Progress events reach onProgress as they
// arrive.
func (a apiClient) followJob(ctx context.Context, id string, onProgress func(*server.ProgressView)) (server.JobStatus, error) {
	req, err := a.newRequest(ctx, http.MethodGet, "/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return server.JobStatus{}, err
	}
	resp, err := a.hc.Do(req)
	if err != nil {
		return server.JobStatus{}, &workerError{err}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// 404 included: a restarted worker forgot the job — re-dispatch.
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		return server.JobStatus{}, &workerError{fmt.Errorf("job %s events returned %d: %s", id, resp.StatusCode, errorMessage(body))}
	}
	st, err := readJobEvents(resp.Body, onProgress)
	if err == nil {
		// The worker closes the stream after the terminal event; reading
		// to its end returns the connection to the pool.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<16))
	}
	return st, err
}

// readJobEvents parses a job's Server-Sent Events stream up to its
// first terminal event ("done", "failed" or "canceled") and returns the
// JobStatus that event carries. Comment frames (": ping" keepalives)
// and the lifecycle edges before the terminal one are skipped;
// "progress" events are decoded and handed to onProgress. A stream
// that ends before its terminal event, an undecodable event, or a line
// longer than maxResponseBytes is a *workerError.
func readJobEvents(r io.Reader, onProgress func(*server.ProgressView)) (server.JobStatus, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxResponseBytes)
	var event string
	var data []byte
	for sc.Scan() {
		if line := sc.Bytes(); len(line) > 0 {
			field, value, _ := bytes.Cut(line, []byte(":"))
			value = bytes.TrimPrefix(value, []byte(" "))
			switch string(field) {
			case "event":
				event = string(value)
			case "data":
				// lvpd writes each event's JSON on one data line.
				data = append(data[:0], value...)
			}
			continue // a field line, a comment, or an unknown field
		}
		// A blank line dispatches the event gathered since the last one.
		switch {
		case event == "progress":
			var p server.ProgressView
			if err := json.Unmarshal(data, &p); err != nil {
				return server.JobStatus{}, &workerError{fmt.Errorf("undecodable progress event: %w", err)}
			}
			onProgress(&p)
		case terminal(event):
			var st server.JobStatus
			if err := json.Unmarshal(data, &st); err != nil {
				return server.JobStatus{}, &workerError{fmt.Errorf("undecodable %s event: %w", event, err)}
			}
			return st, nil
		}
		event, data = "", data[:0]
	}
	if err := sc.Err(); err != nil {
		return server.JobStatus{}, &workerError{fmt.Errorf("reading job events: %w", err)}
	}
	return server.JobStatus{}, &workerError{errors.New("job event stream ended before its terminal event")}
}

// cancelJob best-effort cancels a job the coordinator no longer wants
// (the attempt was stolen or timed out).
func (a apiClient) cancelJob(ctx context.Context, id string) error {
	_, _, err := a.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	return err
}

// health probes the worker's /healthz.
func (a apiClient) health(ctx context.Context) (server.Health, error) {
	var h server.Health
	code, body, err := a.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return h, err
	}
	if code != http.StatusOK {
		return h, fmt.Errorf("healthz returned %d", code)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("undecodable healthz: %w", err)
	}
	return h, nil
}
