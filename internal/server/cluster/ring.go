// Package cluster is fsmemd's horizontal scale-out layer: a
// coordinator that routes content-addressed jobs across a registered
// fleet of fsmemd workers.
//
// Design (DESIGN.md §12):
//
//   - Routing is a consistent-hash ring over the fleet, keyed by the
//     job's content-addressed ID (server.Canonicalize). The ring is a
//     pure function of the membership set, so the same job maps to the
//     same worker across coordinator restarts, and a membership change
//     only moves the keys that hashed to the departed (or arrived)
//     member.
//   - Every FS-policy simulation is byte-deterministic (the paper's
//     core property), which makes jobs perfectly relocatable: any
//     worker produces the identical result document. The coordinator
//     exploits that three ways — transparent retry on another worker
//     when one fails (the content-addressed ID makes the resubmission
//     idempotent), work-stealing of jobs parked on an unhealthy worker,
//     and a sampled cross-worker byte-identity check that re-executes a
//     fraction of finished jobs on a second worker and diffs the bytes:
//     determinism doubling as a distributed integrity check.
//   - Backpressure is per-worker: each member has a bounded in-flight
//     window; dispatches queue for a slot and abort (to be re-routed)
//     the moment the member's health epoch is canceled.
package cluster

import (
	"fmt"
	"hash/fnv"
	"sort"
)

// vnodes is the virtual-node count per member: enough that a
// three-worker fleet splits load roughly evenly, cheap enough that a
// membership change rebuilds the ring in microseconds.
const vnodes = 64

// Ring is a consistent-hash ring over member names. It is a pure value:
// rebuilding a ring from the same member set — in any insertion order,
// in any process — yields identical routing, which is what makes the
// coordinator's placement reproducible across restarts. Not safe for
// concurrent mutation; the membership registry guards it.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	member string
}

// NewRing builds an empty ring.
func NewRing() *Ring { return &Ring{} }

func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// Add inserts a member's virtual nodes. Adding a present member is a
// no-op.
func (r *Ring) Add(member string) {
	for _, p := range r.points {
		if p.member == member {
			return
		}
	}
	for i := 0; i < vnodes; i++ {
		r.points = append(r.points, ringPoint{hash64(fmt.Sprintf("%s#%d", member, i)), member})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Ties (astronomically rare with 64-bit FNV) break on the member
		// name so the order stays total and insertion-independent.
		return r.points[i].member < r.points[j].member
	})
}

// Remove deletes a member's virtual nodes; the surviving points keep
// their positions, so only keys owned by the removed member move.
func (r *Ring) Remove(member string) {
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Members returns the distinct member names, sorted.
func (r *Ring) Members() []string {
	seen := map[string]bool{}
	var out []string
	for _, p := range r.points {
		if !seen[p.member] {
			seen[p.member] = true
			out = append(out, p.member)
		}
	}
	sort.Strings(out)
	return out
}

// Owner returns the member owning key: the first virtual node at or
// clockwise after the key's hash. It never allocates — this is the
// routing hot path (BenchmarkClusterRouting pins it). Empty ring
// returns "".
func (r *Ring) Owner(key string) string {
	if len(r.points) == 0 {
		return ""
	}
	h := hash64(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return r.points[i].member
}

// Lookup returns up to n distinct members in preference order: the
// key's owner first, then each further distinct member walking
// clockwise. The order is the coordinator's retry/steal sequence — the
// same key yields the same sequence on every coordinator over the same
// membership.
func (r *Ring) Lookup(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	h := hash64(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if start == len(r.points) {
		start = 0
	}
	var out []string
	seen := map[string]bool{}
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !seen[m] {
			seen[m] = true
			out = append(out, m)
		}
	}
	return out
}
