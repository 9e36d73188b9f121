// Package dram implements a cycle-accurate DDR3 device and channel model:
// banks, ranks, command/data buses, the full JEDEC timing-constraint set
// used by the paper (Table 1) and refresh. Its commands are the seven the
// controllers issue; rank power-down is accounted for by core.FS, which
// reads only tXP from here.
//
// All times are expressed in DRAM bus cycles (800 MHz for DDR3-1600).
// The model is scheduler-agnostic: schedulers ask CanIssue/Issue, and an
// independent Checker re-validates complete command streams so that the
// Fixed Service pipelines can be proven conflict-free in tests.
package dram

import "fmt"

// Params holds the organization and timing parameters of one memory
// channel; how many channels a system has is sim.Config.Channels. Timing
// fields mirror Table 1 of the paper and are in DRAM bus cycles unless
// noted otherwise.
type Params struct {
	// Organization.
	RanksPerChan int // ranks per channel
	BanksPerRank int // banks per rank
	BankGroups   int // DDR4 bank groups per rank (<= 1 disables group timing)
	RowsPerBank  int // rows per bank
	ColsPerRow   int // cache-line columns per row (row size / 64B)

	// Core timing constraints.
	TRC    int // ACT -> ACT, same bank
	TRCD   int // ACT -> CAS (read or write), same bank
	TRAS   int // ACT -> PRE, same bank
	TRP    int // PRE -> ACT, same bank
	TRTP   int // READ -> PRE, same bank
	TWR    int // end of write data -> PRE, same bank (write recovery)
	TFAW   int // window in which at most 4 ACTs may issue, per rank
	TRRD   int // ACT -> ACT, same rank (same bank group when groups enabled: tRRD_L)
	TRRDS  int // DDR4: ACT -> ACT across bank groups (tRRD_S)
	TCCD   int // CAS -> CAS, same rank (same bank group when groups enabled: tCCD_L)
	TCCDS  int // DDR4: CAS -> CAS across bank groups (tCCD_S)
	TWTR   int // end of write data -> READ CAS, same rank (same group: tWTR_L)
	TWTRS  int // DDR4: write data end -> READ CAS across bank groups (tWTR_S)
	TCAS   int // READ CAS -> first data beat (a.k.a. CL)
	TCWD   int // WRITE CAS -> first data beat (a.k.a. CWL)
	TBURST int // data beats per column access (burst length 8 = 4 bus cycles)
	TRTRS  int // rank-to-rank data-bus switching delay

	// Refresh.
	TREFI int // average refresh interval
	TRFC  int // refresh cycle time

	// Power-down.
	TXP int // power-down exit latency (fast-exit precharge power-down)

	// Clocking.
	CPUCyclesPerBusCycle int // CPU clock / DRAM bus clock ratio (3.2GHz / 800MHz = 4)
}

// DDR3_1600 returns the DDR3-1600 (800 MHz bus) parameter set used
// throughout the paper's evaluation (Table 1), with a 4Gb-part geometry.
func DDR3_1600() Params {
	return Params{
		RanksPerChan: 8,
		BanksPerRank: 8,
		RowsPerBank:  1 << 16,
		ColsPerRow:   128, // 8KB row / 64B lines

		TRC:    39,
		TRCD:   11,
		TRAS:   28,
		TRP:    11,
		TRTP:   6,
		TWR:    12,
		TFAW:   24,
		TRRD:   5,
		TCCD:   4,
		TWTR:   6,
		TCAS:   11,
		TCWD:   5,
		TBURST: 4,
		TRTRS:  2,

		TREFI: 6240, // 7.8us at 800MHz
		TRFC:  208,  // 260ns at 800MHz

		TXP: 10, // "lighter power-down modes have transition latencies of 10 memory cycles"

		CPUCyclesPerBusCycle: 4,
	}
}

// Validate reports whether the parameter set is internally consistent.
func (p Params) Validate() error {
	switch {
	case p.RanksPerChan <= 0:
		return fmt.Errorf("dram: RanksPerChan must be positive, got %d", p.RanksPerChan)
	case p.BanksPerRank <= 0:
		return fmt.Errorf("dram: BanksPerRank must be positive, got %d", p.BanksPerRank)
	case p.RowsPerBank <= 0 || p.ColsPerRow <= 0:
		return fmt.Errorf("dram: geometry must be positive (rows=%d cols=%d)", p.RowsPerBank, p.ColsPerRow)
	case p.TBURST <= 0:
		return fmt.Errorf("dram: TBURST must be positive, got %d", p.TBURST)
	case p.TRAS+p.TRP > p.TRC:
		return fmt.Errorf("dram: tRAS+tRP (%d) must not exceed tRC (%d)", p.TRAS+p.TRP, p.TRC)
	case p.TRCD > p.TRAS:
		return fmt.Errorf("dram: tRCD (%d) must not exceed tRAS (%d)", p.TRCD, p.TRAS)
	case p.CPUCyclesPerBusCycle <= 0:
		return fmt.Errorf("dram: CPUCyclesPerBusCycle must be positive, got %d", p.CPUCyclesPerBusCycle)
	}
	if p.BankGroups > 1 {
		if p.BanksPerRank%p.BankGroups != 0 {
			return fmt.Errorf("dram: %d banks do not split into %d bank groups", p.BanksPerRank, p.BankGroups)
		}
		if p.TCCDS <= 0 || p.TRRDS <= 0 || p.TWTRS <= 0 {
			return fmt.Errorf("dram: bank groups require positive tCCD_S/tRRD_S/tWTR_S")
		}
		if p.TCCDS > p.TCCD || p.TRRDS > p.TRRD || p.TWTRS > p.TWTR {
			return fmt.Errorf("dram: short bank-group timings must not exceed the long ones")
		}
	}
	return nil
}

// ReadToWriteGap returns the minimum spacing, in cycles, between a READ CAS
// and a following WRITE CAS on the same channel so that the write burst does
// not collide with the read burst on the data bus. This is the paper's
// Rd2Wr delay: tCAS + tBURST - tCWD.
func (p Params) ReadToWriteGap() int { return p.TCAS + p.TBURST - p.TCWD }

// WriteToReadGap returns the minimum spacing between a WRITE CAS and a
// following READ CAS targeting the same rank. This is the paper's Wr2Rd
// delay: tCWD + tBURST + tWTR.
func (p Params) WriteToReadGap() int { return p.TCWD + p.TBURST + p.TWTR }

// ReadDataStart returns the offset from a READ CAS to its first data beat.
func (p *Params) ReadDataStart() int { return p.TCAS }

// WriteDataStart returns the offset from a WRITE CAS to its first data beat.
func (p *Params) WriteDataStart() int { return p.TCWD }

// TotalBanks returns the number of banks in one channel.
func (p Params) TotalBanks() int { return p.RanksPerChan * p.BanksPerRank }
