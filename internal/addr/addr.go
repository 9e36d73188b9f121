// Package addr expresses the spatial partitioning policies of the paper
// (Section 4) over DRAM coordinates: rank and bank partitioning are
// page-coloring constraints on the (rank, bank) space a security domain's
// data may occupy within a channel, and channel routing decides which
// channel of a multi-channel fabric serves each request.
package addr

import (
	"fmt"

	"fsmem/internal/dram"
)

// PartitionKind is the spatial-partitioning policy of Section 4.
type PartitionKind int

const (
	// PartitionNone shares every rank and bank among all domains.
	PartitionNone PartitionKind = iota
	// PartitionRank dedicates disjoint rank sets to domains (page coloring
	// on rank bits); requires domains ≤ ranks.
	PartitionRank
	// PartitionBank dedicates disjoint bank indices (across all ranks) to
	// domains; requires domains ≤ banks per rank for the worst-case
	// same-rank pipeline the paper analyzes.
	PartitionBank
	// PartitionChannel dedicates whole channels to domains (no sharing, no
	// timing channel); requires domains ≤ channels.
	PartitionChannel
)

// String names the partition kind.
func (k PartitionKind) String() string {
	switch k {
	case PartitionNone:
		return "none"
	case PartitionRank:
		return "rank"
	case PartitionBank:
		return "bank"
	case PartitionChannel:
		return "channel"
	default:
		return fmt.Sprintf("PartitionKind(%d)", int(k))
	}
}

// Space is the set of (rank, bank) pairs a domain may occupy within one
// channel. Ranks and Banks are each non-empty; the space is their product.
type Space struct {
	Ranks []int
	Banks []int
}

// Contains reports whether the (rank, bank) pair lies in the space.
func (s Space) Contains(rank, bank int) bool {
	return containsInt(s.Ranks, rank) && containsInt(s.Banks, bank)
}

func containsInt(xs []int, v int) bool {
	for _, x := range xs {
		if x == v {
			return true
		}
	}
	return false
}

func seq(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}

// SpaceFor computes the page-coloring space for one domain under the given
// partitioning, mirroring the OS allocation policy described in §5.1.
func SpaceFor(kind PartitionKind, domain, numDomains int, p dram.Params) (Space, error) {
	if domain < 0 || domain >= numDomains {
		return Space{}, fmt.Errorf("addr: domain %d out of range [0,%d)", domain, numDomains)
	}
	if err := CheckPartition(kind, numDomains, p); err != nil {
		return Space{}, err
	}
	switch kind {
	case PartitionNone, PartitionChannel:
		// Channel partitioning separates domains across channels; within its
		// own channel a domain sees everything.
		return Space{Ranks: seq(p.RanksPerChan), Banks: seq(p.BanksPerRank)}, nil
	case PartitionRank:
		per := p.RanksPerChan / numDomains
		ranks := make([]int, 0, per)
		for r := domain * per; r < (domain+1)*per; r++ {
			ranks = append(ranks, r)
		}
		return Space{Ranks: ranks, Banks: seq(p.BanksPerRank)}, nil
	default: // PartitionBank
		per := p.BanksPerRank / numDomains
		banks := make([]int, 0, per)
		for b := domain * per; b < (domain+1)*per; b++ {
			banks = append(banks, b)
		}
		return Space{Ranks: seq(p.RanksPerChan), Banks: banks}, nil
	}
}

// CheckPartition is SpaceFor's capacity rule: rank partitioning needs a
// rank per domain and bank partitioning a bank per domain in each rank.
func CheckPartition(kind PartitionKind, numDomains int, p dram.Params) error {
	switch kind {
	case PartitionNone, PartitionChannel:
		return nil
	case PartitionRank:
		if numDomains > p.RanksPerChan {
			return fmt.Errorf("addr: rank partitioning needs domains (%d) <= ranks (%d)", numDomains, p.RanksPerChan)
		}
		return nil
	case PartitionBank:
		if numDomains > p.BanksPerRank {
			return fmt.Errorf("addr: bank partitioning needs domains (%d) <= banks per rank (%d)", numDomains, p.BanksPerRank)
		}
		return nil
	}
	return fmt.Errorf("addr: unknown partition kind %v", kind)
}

// Disjoint reports whether two spaces can never map to the same bank.
func Disjoint(a, b Space) bool {
	for _, r := range a.Ranks {
		if containsInt(b.Ranks, r) {
			for _, bk := range a.Banks {
				if containsInt(b.Banks, bk) {
					return false
				}
			}
		}
	}
	return true
}
