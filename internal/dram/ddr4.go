package dram

// DDR4 bank-group support. JESD79-4 (which Table 1 of the paper cites)
// splits each rank's banks into bank groups; back-to-back column or
// activate commands pay a long timing (tCCD_L, tRRD_L, tWTR_L) within a
// group and a short one (tCCD_S, tRRD_S, tWTR_S) across groups. A Params
// with BankGroups <= 1 behaves exactly like DDR3: the short values are
// ignored and the base TCCD/TRRD/TWTR apply everywhere.

// BankGroup returns the bank-group index of a bank (0 when bank groups are
// disabled).
func (p *Params) BankGroup(bank int) int {
	if p.BankGroups <= 1 {
		return 0
	}
	return bank / (p.BanksPerRank / p.BankGroups)
}

// CCDSame / CCDOther return the CAS-to-CAS spacing within and across bank
// groups.
func (p *Params) CCDSame() int { return p.TCCD }
func (p *Params) CCDOther() int {
	if p.BankGroups <= 1 {
		return p.TCCD
	}
	return p.TCCDS
}

// RRDSame / RRDOther return the ACT-to-ACT spacing within and across bank
// groups.
func (p *Params) RRDSame() int { return p.TRRD }
func (p *Params) RRDOther() int {
	if p.BankGroups <= 1 {
		return p.TRRD
	}
	return p.TRRDS
}

// WTRSame / WTROther return the write-data-end-to-read-CAS spacing within
// and across bank groups.
func (p *Params) WTRSame() int { return p.TWTR }
func (p *Params) WTROther() int {
	if p.BankGroups <= 1 {
		return p.TWTR
	}
	return p.TWTRS
}

// DDR4_2400 returns a DDR4-2400 (1200 MHz bus) parameter set for an 8Gb
// x8 part: 16 banks in 4 bank groups, JESD79-4 speed-bin timings expressed
// in bus cycles.
func DDR4_2400() Params {
	return Params{
		RanksPerChan: 8,
		BanksPerRank: 16,
		BankGroups:   4,
		RowsPerBank:  1 << 17,
		ColsPerRow:   128,

		TRC:    55, // 45.75ns
		TRCD:   16, // 13.32ns
		TRAS:   39, // 32ns
		TRP:    16,
		TRTP:   9,  // 7.5ns
		TWR:    18, // 15ns
		TFAW:   26, // 21ns (2KB page x8)
		TRRD:   6,  // tRRD_L
		TRRDS:  4,  // tRRD_S
		TCCD:   6,  // tCCD_L
		TCCDS:  4,  // tCCD_S
		TWTR:   9,  // tWTR_L, 7.5ns
		TWTRS:  3,  // tWTR_S, 2.5ns
		TCAS:   16, // CL 16
		TCWD:   12, // CWL 12
		TBURST: 4,  // BL8
		TRTRS:  2,

		TREFI: 9360, // 7.8us at 1200MHz
		TRFC:  420,  // 350ns for 8Gb

		TXP: 8, // ~6.5ns fast exit

		CPUCyclesPerBusCycle: 3, // 3.6 GHz core / 1200 MHz bus
	}
}
