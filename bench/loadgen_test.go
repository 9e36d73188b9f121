package main

import (
	"context"
	"errors"
	"testing"
	"time"
)

// A send that stalls makes the jobs due during the stall go out late; their
// latency must count from when they were due, not from when they were sent.
func TestOpenLoopCountsLatenessFromDueTime(t *testing.T) {
	const interval = 20 * time.Millisecond
	const stall = 70 * time.Millisecond
	jobs := make([]*job, 6)
	for k := range jobs {
		jobs[k] = &job{idx: k}
	}
	start := time.Now()
	sendOnSchedule(context.Background(), start, interval, jobs, func(j *job) {
		if j.idx == 0 {
			time.Sleep(stall)
		}
		j.finished = time.Now()
	})
	jobs[5].err = errors.New("refused")

	for k, j := range jobs {
		if want := start.Add(time.Duration(k) * interval); !j.due.Equal(want) {
			t.Fatalf("job %d due at %v, want %v", k, j.due.Sub(start), want.Sub(start))
		}
	}
	// Jobs 1-3 fell due inside the stall and went out when it ended.
	for _, k := range []int{1, 2, 3} {
		if late := jobs[k].sent.Sub(jobs[k].due); late < stall-time.Duration(k)*interval-5*time.Millisecond {
			t.Errorf("job %d sent %v late, want about %v", k, late, stall-time.Duration(k)*interval)
		}
	}

	w := serveWindow(jobs, nil)
	if w.attempted != 6 || w.failed != 1 || len(w.units) != 5 {
		t.Fatalf("attempted %d failed %d units %d, want 6/1/5", w.attempted, w.failed, len(w.units))
	}
	if lat := w.units[1]; lat < stall-interval-5*time.Millisecond {
		t.Errorf("job 1 latency %v does not include the %v it waited behind the stall", lat, stall-interval)
	}
	if max := w.notes["loadgen.late_s.max"].value; max < (stall - interval - 5*time.Millisecond).Seconds() {
		t.Errorf("loadgen.late_s.max = %v, want about %v", max, (stall - interval).Seconds())
	}
}
