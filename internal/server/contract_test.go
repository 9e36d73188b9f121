package server_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fsmem/internal/server"
	"fsmem/internal/server/cluster"
)

// frontEnd is one role behind the job API, with a job held live on it.
type frontEnd struct {
	url     string
	drain   func(context.Context) error
	release func()
}

// heldDaemon boots a daemon whose jobs stay running until release.
func heldDaemon(t *testing.T) frontEnd {
	t.Helper()
	s, err := server.New(server.Options{Workers: 1, RatePerSec: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	release := server.HoldJobs(s)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		release()
		s.Drain(context.Background())
		ts.Close()
	})
	return frontEnd{url: ts.URL, drain: s.Drain, release: release}
}

// heldCoordinator fronts one held in-process worker with a coordinator.
func heldCoordinator(t *testing.T) frontEnd {
	t.Helper()
	worker := heldDaemon(t)
	c, err := cluster.New(cluster.Options{
		Workers:           []string{worker.url},
		HeartbeatInterval: 15 * time.Millisecond,
		PollInterval:      2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(c.Handler())
	t.Cleanup(func() {
		worker.release()
		c.Drain(context.Background())
		ts.Close()
	})
	return frontEnd{url: ts.URL, drain: c.Drain, release: worker.release}
}

// call sends one request and returns the response with its body read.
func call(t *testing.T, method, url, body string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

// TestWireContractBothRoles runs one table of wire-contract cases
// against a daemon and against a coordinator fronting a daemon: both
// must answer every case with the same status, error code, and headers.
func TestWireContractBothRoles(t *testing.T) {
	sim := `{"kind":"simulate","simulate":{"workload":"mcf","cores":2,"scheduler":"fs_bp","reads":300,"seed":%d}}`
	cases := []struct {
		name         string
		draining     bool // Drain has started before the request
		method, path string
		body         string
		status       int
		code         string // ErrorBody.Code; "" for a success
		header       string // "Name: value" the response must carry
	}{
		{name: "healthz", method: "GET", path: "/healthz", status: 200},
		{name: "readyz", method: "GET", path: "/readyz", status: 200},
		{name: "unknown field", method: "POST", path: "/v1/jobs", body: `{"kind":"simulate","bogus":1}`, status: 400, code: "bad_request"},
		{name: "unknown kind", method: "POST", path: "/v1/jobs", body: `{"kind":"nope"}`, status: 400, code: "config"},
		{name: "unknown id", method: "GET", path: "/v1/jobs/jdeadbeef", status: 404, code: "not_found"},
		{name: "result of a live job", method: "GET", path: "/v1/jobs/{live}/result", status: 409, code: "not_done"},
		{name: "metrics", method: "GET", path: "/metrics", status: 200, header: "Content-Type: text/plain; version=0.0.4"},
		{name: "readyz while draining", draining: true, method: "GET", path: "/readyz", status: 503, code: "draining"},
		{name: "submit while draining", draining: true, method: "POST", path: "/v1/jobs",
			body: fmt.Sprintf(sim, 2), status: 503, code: "draining", header: "Retry-After: 2"},
	}
	for _, role := range []struct {
		name  string
		start func(*testing.T) frontEnd
	}{
		{"daemon", heldDaemon},
		{"coordinator", heldCoordinator},
	} {
		t.Run(role.name, func(t *testing.T) {
			fe := role.start(t)
			resp, body := call(t, "POST", fe.url+"/v1/jobs", fmt.Sprintf(sim, 1))
			var live server.JobStatus
			if err := json.Unmarshal(body, &live); err != nil || resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submitting the held job: %d %s", resp.StatusCode, body)
			}
			drained := make(chan error, 1)
			draining := false
			for _, tc := range cases {
				if tc.draining && !draining {
					draining = true
					go func() { drained <- fe.drain(context.Background()) }()
					for deadline := time.Now().Add(10 * time.Second); ; {
						if r, _ := call(t, "GET", fe.url+"/readyz", ""); r.StatusCode != http.StatusOK {
							break
						}
						if time.Now().After(deadline) {
							t.Fatal("readyz never left 200 after Drain started")
						}
						time.Sleep(time.Millisecond)
					}
				}
				resp, body := call(t, tc.method, fe.url+strings.Replace(tc.path, "{live}", live.ID, 1), tc.body)
				if resp.StatusCode != tc.status {
					t.Fatalf("%s: status %d (%s), want %d", tc.name, resp.StatusCode, body, tc.status)
				}
				if tc.code != "" {
					var eb server.ErrorBody
					if err := json.Unmarshal(body, &eb); err != nil || eb.Code != tc.code {
						t.Fatalf("%s: body %s, want code %q", tc.name, body, tc.code)
					}
				}
				if tc.header != "" {
					name, want, _ := strings.Cut(tc.header, ": ")
					if got := resp.Header.Get(name); got != want {
						t.Fatalf("%s: %s %q, want %q", tc.name, name, got, want)
					}
				}
			}
			fe.release()
			if err := <-drained; err != nil {
				t.Fatalf("drain: %v", err)
			}
		})
	}
}
