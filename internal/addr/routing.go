package addr

import "fmt"

// Routing selects how a multi-channel system assigns a memory request to
// a channel. It is the fabric-level analogue of PartitionKind: colored
// routing is the page-coloring policy of Section 4.1 applied at channel
// granularity, interleaved routing is the conventional shared mapping.
// sim.New builds each colored channel as a standalone machine of its
// domain block, and mem.Fabric routes interleaved requests.
type Routing int

const (
	// RouteColored dedicates whole channels to contiguous blocks of
	// security domains (channel partitioning). Domains on different
	// channels share no hardware at all, so the composition is trivially
	// leakage-free: the system is the product of independent per-channel
	// machines.
	RouteColored Routing = iota
	// RouteInterleaved scatters every domain's lines across all channels
	// by address bits, the way commodity controllers stripe for bandwidth.
	// Channels become cross-domain shared resources, so a non-fixed
	// scheduler leaks timing information through channel contention.
	RouteInterleaved
)

// String names the routing policy.
func (r Routing) String() string {
	switch r {
	case RouteColored:
		return "colored"
	case RouteInterleaved:
		return "interleaved"
	default:
		return fmt.Sprintf("Routing(%d)", int(r))
	}
}

// RoutingByName parses a routing-policy name.
func RoutingByName(name string) (Routing, error) {
	switch name {
	case "colored":
		return RouteColored, nil
	case "interleaved":
		return RouteInterleaved, nil
	default:
		return 0, fmt.Errorf("addr: unknown routing %q (want colored or interleaved)", name)
	}
}
