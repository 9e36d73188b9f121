package cluster

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"fsmem/internal/server/client"
)

// Member is one registered fsmemd worker: a typed client for it, a
// bounded in-flight window, a health state driven by the heartbeat
// loop, and per-worker counters for the fleet metrics.
type Member struct {
	// Name is the worker's base URL; it is both the routing identity on
	// the hash ring and the dial target.
	Name string

	cl     *client.Client
	window chan struct{} // in-flight slots; send acquires, receive releases

	mu          sync.Mutex
	healthy     bool
	fails       int // consecutive heartbeat failures
	epochCtx    context.Context
	epochCancel context.CancelFunc

	// Counters, read by the fleet metrics and /v1/cluster.
	routed         atomic.Int64 // dispatch attempts placed on this worker
	completed      atomic.Int64 // jobs this worker finished for the coordinator
	failedJobs     atomic.Int64 // dispatch attempts that errored here
	stolen         atomic.Int64 // jobs re-routed away after this worker turned unhealthy
	heartbeatFails atomic.Int64 // lifetime failed heartbeats
	inFlight       atomic.Int64
}

// Client returns the member's typed client.
func (m *Member) Client() *client.Client { return m.cl }

// Healthy reports the heartbeat verdict.
func (m *Member) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy
}

// epoch returns the member's current health epoch: a context that is
// canceled the moment the heartbeat loop marks the member unhealthy.
// Dispatches bind to it so work parked on a dying worker aborts (and is
// stolen) immediately instead of waiting out an HTTP timeout.
func (m *Member) epoch() context.Context {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epochCtx
}

// acquire takes an in-flight slot, aborting if the member's epoch or
// ctx ends first. release must be called iff acquire returned nil.
func (m *Member) acquire(ctx context.Context) error {
	epoch := m.epoch()
	select {
	case m.window <- struct{}{}:
		m.inFlight.Add(1)
		return nil
	default:
	}
	select {
	case m.window <- struct{}{}:
		m.inFlight.Add(1)
		return nil
	case <-epoch.Done():
		return epoch.Err()
	case <-ctx.Done():
		return ctx.Err()
	}
}

func (m *Member) release() {
	m.inFlight.Add(-1)
	<-m.window
}

// Registry is the fleet membership table: the hash ring over the
// registered members plus the heartbeat loop that drives their health.
type Registry struct {
	interval  time.Duration
	failAfter int
	window    int
	newClient func(name string) *client.Client

	mu      sync.Mutex
	ring    *Ring
	members map[string]*Member

	hbCtx    context.Context
	hbCancel context.CancelFunc
	hbDone   chan struct{}
}

// newRegistry builds the registry and starts its heartbeat loop.
func newRegistry(interval time.Duration, failAfter, window int, newClient func(string) *client.Client) *Registry {
	if newClient == nil {
		newClient = func(name string) *client.Client { return client.New(name, nil) }
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &Registry{
		interval:  interval,
		failAfter: failAfter,
		window:    window,
		newClient: newClient,
		ring:      NewRing(),
		members:   map[string]*Member{},
		hbCtx:     ctx,
		hbCancel:  cancel,
		hbDone:    make(chan struct{}),
	}
	go r.heartbeatLoop()
	return r
}

// Add registers a worker (idempotent). New members start healthy and
// enter the ring immediately; the first failed heartbeats demote them.
func (r *Registry) Add(name string) *Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.members[name]; ok {
		return m
	}
	ectx, ecancel := context.WithCancel(context.Background())
	m := &Member{
		Name:        name,
		cl:          r.newClient(name),
		window:      make(chan struct{}, r.window),
		healthy:     true,
		epochCtx:    ectx,
		epochCancel: ecancel,
	}
	r.members[name] = m
	r.ring.Add(name)
	return m
}

// Members returns every registered member, sorted by name.
func (r *Registry) Members() []*Member {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Member, 0, len(r.members))
	for _, name := range r.ring.Members() {
		out = append(out, r.members[name])
	}
	return out
}

// Get returns a member by name.
func (r *Registry) Get(name string) (*Member, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.members[name]
	return m, ok
}

// HealthyCount reports how many members currently pass heartbeats.
func (r *Registry) HealthyCount() int {
	n := 0
	for _, m := range r.Members() {
		if m.Healthy() {
			n++
		}
	}
	return n
}

// Pick returns the preferred member for key: the first healthy,
// not-yet-tried member in the ring's deterministic preference order.
// The first choice is always the ring owner, so routing is stable; the
// walk past it is exactly the steal/retry order.
func (r *Registry) Pick(key string, tried map[string]bool) *Member {
	r.mu.Lock()
	order := r.ring.Lookup(key, len(r.members))
	members := make([]*Member, 0, len(order))
	for _, name := range order {
		members = append(members, r.members[name])
	}
	r.mu.Unlock()
	for _, m := range members {
		if tried[m.Name] {
			continue
		}
		if m.Healthy() {
			return m
		}
	}
	return nil
}

// heartbeatLoop probes every member's /healthz each interval. failAfter
// consecutive failures demote a member (canceling its epoch, which
// aborts and re-routes everything parked on it); one success promotes
// it back with a fresh epoch.
func (r *Registry) heartbeatLoop() {
	defer close(r.hbDone)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-r.hbCtx.Done():
			return
		case <-t.C:
		}
		var wg sync.WaitGroup
		for _, m := range r.Members() {
			wg.Add(1)
			go func(m *Member) {
				defer wg.Done()
				ctx, cancel := context.WithTimeout(r.hbCtx, r.interval)
				err := m.cl.Health(ctx)
				cancel()
				r.noteHeartbeat(m, err)
			}(m)
		}
		wg.Wait()
	}
}

func (r *Registry) noteHeartbeat(m *Member, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if err == nil {
		m.fails = 0
		if !m.healthy {
			m.healthy = true
			m.epochCtx, m.epochCancel = context.WithCancel(context.Background())
		}
		return
	}
	m.heartbeatFails.Add(1)
	m.fails++
	if m.healthy && m.fails >= r.failAfter {
		m.healthy = false
		m.epochCancel()
	}
}

// close stops the heartbeat loop and cancels every member epoch.
func (r *Registry) close() {
	r.hbCancel()
	<-r.hbDone
	for _, m := range r.Members() {
		m.mu.Lock()
		m.epochCancel()
		m.mu.Unlock()
	}
}
