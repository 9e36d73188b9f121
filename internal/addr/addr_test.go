package addr

import (
	"testing"

	"fsmem/internal/dram"
)

func TestSpaceForRankPartitioning(t *testing.T) {
	p := dram.DDR3_1600()
	seen := map[int]bool{}
	for d := 0; d < 8; d++ {
		s, err := SpaceFor(PartitionRank, d, 8, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Ranks) != 1 || len(s.Banks) != p.BanksPerRank {
			t.Fatalf("domain %d space %+v, want 1 rank x all banks", d, s)
		}
		if seen[s.Ranks[0]] {
			t.Fatalf("rank %d assigned twice", s.Ranks[0])
		}
		seen[s.Ranks[0]] = true
	}
	// 2 domains, 8 ranks: 4 ranks each, disjoint.
	a, _ := SpaceFor(PartitionRank, 0, 2, p)
	b, _ := SpaceFor(PartitionRank, 1, 2, p)
	if len(a.Ranks) != 4 || len(b.Ranks) != 4 {
		t.Fatalf("2-domain rank split: %v / %v", a.Ranks, b.Ranks)
	}
	if !Disjoint(a, b) {
		t.Error("2-domain rank spaces overlap")
	}
}

func TestSpaceForBankPartitioning(t *testing.T) {
	p := dram.DDR3_1600()
	for d := 0; d < 8; d++ {
		s, err := SpaceFor(PartitionBank, d, 8, p)
		if err != nil {
			t.Fatal(err)
		}
		if len(s.Banks) != 1 || len(s.Ranks) != p.RanksPerChan {
			t.Fatalf("domain %d space %+v, want all ranks x 1 bank", d, s)
		}
	}
	a, _ := SpaceFor(PartitionBank, 0, 8, p)
	b, _ := SpaceFor(PartitionBank, 1, 8, p)
	if !Disjoint(a, b) {
		t.Error("bank partitions overlap")
	}
}

func TestSpaceForNoneIsEverything(t *testing.T) {
	p := dram.DDR3_1600()
	s, err := SpaceFor(PartitionNone, 3, 8, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Ranks) != p.RanksPerChan || len(s.Banks) != p.BanksPerRank {
		t.Fatalf("none-partition space %+v", s)
	}
	if !s.Contains(7, 7) || s.Contains(8, 0) {
		t.Error("Contains wrong")
	}
}

func TestSpaceForErrors(t *testing.T) {
	p := dram.DDR3_1600()
	if _, err := SpaceFor(PartitionRank, 0, 9, p); err == nil {
		t.Error("9 domains on 8 ranks should fail")
	}
	if _, err := SpaceFor(PartitionBank, 0, 9, p); err == nil {
		t.Error("9 domains on 8 banks should fail")
	}
	if _, err := SpaceFor(PartitionRank, 8, 8, p); err == nil {
		t.Error("domain out of range should fail")
	}
	if _, err := SpaceFor(PartitionKind(42), 0, 8, p); err == nil {
		t.Error("unknown kind should fail")
	}
}

func TestPartitionKindString(t *testing.T) {
	names := map[PartitionKind]string{
		PartitionNone: "none", PartitionRank: "rank", PartitionBank: "bank", PartitionChannel: "channel",
	}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), want)
		}
	}
}

// TestPartitionDisjointnessProperty: for any valid (kind, count), all
// domain spaces are pairwise disjoint under rank/bank partitioning.
func TestPartitionDisjointnessProperty(t *testing.T) {
	p := dram.DDR3_1600()
	for _, kind := range []PartitionKind{PartitionRank, PartitionBank} {
		for _, n := range []int{2, 4, 8} {
			spaces := make([]Space, n)
			for d := 0; d < n; d++ {
				s, err := SpaceFor(kind, d, n, p)
				if err != nil {
					t.Fatal(err)
				}
				spaces[d] = s
			}
			for i := 0; i < n; i++ {
				for j := i + 1; j < n; j++ {
					if !Disjoint(spaces[i], spaces[j]) {
						t.Errorf("%v/%d: domains %d and %d overlap", kind, n, i, j)
					}
				}
			}
		}
	}
}
