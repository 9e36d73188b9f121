package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"
)

func keys(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("j%016x", hash64(fmt.Sprintf("key-%d", i)))
	}
	return out
}

// TestRingDeterministic pins the property the coordinator's placement
// stability rests on: a ring built from the same member set — in any
// insertion order, in any process ("across restarts") — routes every
// key identically.
func TestRingDeterministic(t *testing.T) {
	cases := []struct {
		name   string
		orderA []string
		orderB []string
	}{
		{"two members swapped", []string{"w1", "w2"}, []string{"w2", "w1"}},
		{"three members rotated", []string{"w1", "w2", "w3"}, []string{"w3", "w1", "w2"}},
		{"five members reversed",
			[]string{"a", "b", "c", "d", "e"},
			[]string{"e", "d", "c", "b", "a"}},
		{"urls", []string{"http://10.0.0.1:8377", "http://10.0.0.2:8377", "http://10.0.0.3:8377"},
			[]string{"http://10.0.0.3:8377", "http://10.0.0.2:8377", "http://10.0.0.1:8377"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			a, b := NewRing(), NewRing()
			for _, m := range tc.orderA {
				a.Add(m)
			}
			for _, m := range tc.orderB {
				b.Add(m)
			}
			for _, k := range keys(500) {
				if ao, bo := a.Owner(k), b.Owner(k); ao != bo {
					t.Fatalf("key %s: owner %q vs %q across insertion orders", k, ao, bo)
				}
				if al, bl := a.Lookup(k, len(tc.orderA)), b.Lookup(k, len(tc.orderB)); !reflect.DeepEqual(al, bl) {
					t.Fatalf("key %s: preference order %v vs %v", k, al, bl)
				}
			}
		})
	}
}

// TestRingRebalance pins consistent hashing's minimal-disruption
// contract: removing one member only moves the keys it owned, and
// adding it back restores the original assignment exactly.
func TestRingRebalance(t *testing.T) {
	cases := []struct {
		name    string
		members int
	}{
		{"two workers", 2},
		{"three workers", 3},
		{"five workers", 5},
		{"eight workers", 8},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewRing()
			var members []string
			for i := 0; i < tc.members; i++ {
				m := fmt.Sprintf("http://worker-%d:8377", i)
				members = append(members, m)
				r.Add(m)
			}
			ks := keys(2000)
			before := map[string]string{}
			owned := map[string]int{}
			for _, k := range ks {
				o := r.Owner(k)
				before[k] = o
				owned[o]++
			}
			// Every member owns a share (64 vnodes spread well enough).
			for _, m := range members {
				if owned[m] == 0 {
					t.Fatalf("member %s owns zero of %d keys", m, len(ks))
				}
			}

			gone := members[tc.members/2]
			r.Remove(gone)
			moved := 0
			for _, k := range ks {
				after := r.Owner(k)
				if before[k] == gone {
					moved++
					if after == gone {
						t.Fatalf("key %s still routed to removed member", k)
					}
					continue
				}
				if after != before[k] {
					t.Fatalf("key %s moved %s -> %s though its owner survived", k, before[k], after)
				}
			}
			if moved != owned[gone] {
				t.Fatalf("moved %d keys, expected exactly the %d the removed member owned", moved, owned[gone])
			}

			// Re-adding restores the original assignment bit for bit.
			r.Add(gone)
			for _, k := range ks {
				if got := r.Owner(k); got != before[k] {
					t.Fatalf("after re-add, key %s owner %s != original %s", k, got, before[k])
				}
			}
		})
	}
}

// TestRingLookupOrder pins the retry/steal walk: distinct members, the
// owner first, stable length.
func TestRingLookupOrder(t *testing.T) {
	r := NewRing()
	members := []string{"w1", "w2", "w3", "w4"}
	for _, m := range members {
		r.Add(m)
	}
	for _, k := range keys(200) {
		order := r.Lookup(k, len(members))
		if len(order) != len(members) {
			t.Fatalf("key %s: %d members in order, want %d", k, len(order), len(members))
		}
		if order[0] != r.Owner(k) {
			t.Fatalf("key %s: preference order starts at %s, owner is %s", k, order[0], r.Owner(k))
		}
		seen := map[string]bool{}
		for _, m := range order {
			if seen[m] {
				t.Fatalf("key %s: member %s repeated in order %v", k, m, order)
			}
			seen[m] = true
		}
	}
	if got := r.Lookup("anything", 2); len(got) != 2 {
		t.Fatalf("Lookup n=2 returned %d members", len(got))
	}
	if NewRing().Owner("k") != "" || NewRing().Lookup("k", 3) != nil {
		t.Fatal("empty ring must route nowhere")
	}
}

// TestCoordinatorPlacementSurvivesRestart builds two independent
// coordinators over the same fleet and checks they'd place the same job
// on the same worker — the "same job ID → same worker across restarts"
// contract, at the membership layer the dispatcher actually uses.
func TestCoordinatorPlacementSurvivesRestart(t *testing.T) {
	fleet := []string{"http://a:8377", "http://b:8377", "http://c:8377"}
	build := func() *Coordinator {
		c, err := New(Options{Workers: fleet, HeartbeatInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.members.close() })
		return c
	}
	c1, c2 := build(), build()
	for _, id := range keys(300) {
		m1, m2 := c1.members.Pick(id, nil), c2.members.Pick(id, nil)
		if m1 == nil || m2 == nil {
			t.Fatalf("id %s: no member picked", id)
		}
		if m1.Name != m2.Name {
			t.Fatalf("id %s placed on %s by one coordinator, %s by its restart", id, m1.Name, m2.Name)
		}
	}
}
