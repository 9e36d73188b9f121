package server

import (
	"context"
	"sync"
)

// HoldJobs makes s run every job as a stub that stays running until
// release is called (or the job is canceled) and then returns an empty
// document, so a test can keep jobs live for as long as it needs.
func HoldJobs(s *Server) (release func()) {
	held := make(chan struct{})
	s.manager.testRun = func(ctx context.Context, j *Job) (*cacheEntry, error) {
		select {
		case <-held:
			return &cacheEntry{key: j.Key, result: []byte("{}\n")}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	var once sync.Once
	return func() { once.Do(func() { close(held) }) }
}
