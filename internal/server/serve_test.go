package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"fsmem/internal/fsmerr"
)

// getJSON GETs url and decodes the JSON body into out.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding body: %v", url, err)
	}
	return resp.StatusCode
}

// TestServeListenerAnswersLastPoller pins the drain linger: a job that
// finishes while the daemon drains still has its terminal state served
// to the client polling it, and only then does the serve loop close the
// listener and return.
func TestServeListenerAnswersLastPoller(t *testing.T) {
	s, err := New(Options{Workers: 1, RatePerSec: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	s.manager.testRun = func(ctx context.Context, j *Job) (*cacheEntry, error) {
		<-release
		return &cacheEntry{key: j.Key, result: []byte("{}\n")}, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.ServeListener(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	body, _ := json.Marshal(smallSim(91))
	resp, err := http.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var st JobStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %v", resp.StatusCode, err)
	}

	cancel()
	for { // wait for the drain to start
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(release) // the job finishes during the drain
	for {
		getJSON(t, base+"/v1/jobs/"+st.ID, &st)
		if st.State.Terminal() {
			break
		}
		time.Sleep(25 * time.Millisecond)
	}
	if st.State != StateDone {
		t.Fatalf("polled job ended %s (%s), want done", st.State, st.Error)
	}
	// With its one pending job served, the loop must not wait out the
	// linger bound.
	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("ServeListener: %v", err)
		}
	case <-time.After(lingerTimeout / 2):
		t.Fatal("ServeListener did not return after its last job was served")
	}
}

// TestTerminalJobOutputAnswersItsErrorCode pins the rule for a job with
// no output: once terminal, /result and /trace answer 409 with the
// job's own error code (panic for a quarantine) instead of telling the
// client to keep polling.
func TestTerminalJobOutputAnswersItsErrorCode(t *testing.T) {
	s, err := New(Options{Workers: 1, RatePerSec: 100_000, QuarantineAfter: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.manager.testRun = func(ctx context.Context, j *Job) (*cacheEntry, error) {
		if j.Req.Simulate.Seed == 1 {
			panic("poison config")
		}
		return nil, fsmerr.New(fsmerr.CodeConfig, "test.run", "rejected config")
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		s.Drain(context.Background())
		ts.Close()
	}()

	for _, tc := range []struct {
		seed  uint64
		state JobState
		code  string
	}{
		{1, StateQuarantined, string(fsmerr.CodePanic)},
		{2, StateFailed, string(fsmerr.CodeConfig)},
	} {
		j, _, err := s.manager.Submit(smallSim(tc.seed))
		if err != nil {
			t.Fatal(err)
		}
		if st := waitJob(t, j); st.State != tc.state {
			t.Fatalf("seed %d: state %s, want %s", tc.seed, st.State, tc.state)
		}
		for _, path := range []string{"/result", "/trace"} {
			var eb ErrorBody
			code := getJSON(t, ts.URL+"/v1/jobs/"+j.ID+path, &eb)
			if code != http.StatusConflict || eb.Code != tc.code {
				t.Fatalf("%s job %s: %d %q (%s), want 409 %q", tc.state, path, code, eb.Code, eb.Error, tc.code)
			}
		}
	}
}
