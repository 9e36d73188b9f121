package dram

import "fmt"

// Kind identifies a DRAM command.
type Kind uint8

// DRAM command kinds. ReadAP/WriteAP carry an automatic precharge that the
// device performs internally once tRTP/tWR allow, exactly as the paper's
// Fixed Service pipelines assume ("Column-Reads and Column-Writes are
// issued with an auto-precharge").
const (
	KindActivate Kind = iota
	KindRead
	KindReadAP
	KindWrite
	KindWriteAP
	KindPrecharge
	KindRefresh
)

var kindNames = [...]string{
	KindActivate:  "ACT",
	KindRead:      "RD",
	KindReadAP:    "RDAP",
	KindWrite:     "WR",
	KindWriteAP:   "WRAP",
	KindPrecharge: "PRE",
	KindRefresh:   "REF",
}

// String returns the conventional mnemonic for the command kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// IsCAS reports whether the kind is a column access (read or write).
func (k Kind) IsCAS() bool {
	return k == KindRead || k == KindReadAP || k == KindWrite || k == KindWriteAP
}

// IsRead reports whether the kind is a column read.
func (k Kind) IsRead() bool { return k == KindRead || k == KindReadAP }

// IsWrite reports whether the kind is a column write.
func (k Kind) IsWrite() bool { return k == KindWrite || k == KindWriteAP }

// AutoPrecharge reports whether the kind carries an automatic precharge.
func (k Kind) AutoPrecharge() bool { return k == KindReadAP || k == KindWriteAP }

// Address locates a cache-line-sized piece of data in a channel.
type Address struct {
	Channel int
	Rank    int
	Bank    int
	Row     int
	Col     int
}

// String formats the address as ch/rank/bank/row/col.
func (a Address) String() string {
	return fmt.Sprintf("c%d/r%d/b%d/row%d/col%d", a.Channel, a.Rank, a.Bank, a.Row, a.Col)
}

// NoDomain marks a command that serves no particular security domain
// (refresh, injected faults).
const NoDomain = -1

// Command is one entry on a channel's command bus.
// Refresh addresses a whole rank; Bank/Row/Col are ignored for it.
//
// Domain attributes the command to the security domain it serves; it has
// no effect on timing and exists for the runtime non-interference monitor,
// which tracks per-domain command-issue traces. Schedulers should set it
// (NoDomain for unattributed commands); the zero value attributes to
// domain 0, which is harmless for code that never consults the monitor.
type Command struct {
	Kind   Kind
	Rank   int
	Bank   int
	Row    int
	Col    int
	Domain int
}

// String formats the command with its target.
func (c Command) String() string {
	switch c.Kind {
	case KindRefresh:
		return fmt.Sprintf("%s r%d", c.Kind, c.Rank)
	case KindActivate:
		return fmt.Sprintf("%s r%d/b%d/row%d", c.Kind, c.Rank, c.Bank, c.Row)
	case KindPrecharge:
		return fmt.Sprintf("%s r%d/b%d", c.Kind, c.Rank, c.Bank)
	default:
		return fmt.Sprintf("%s r%d/b%d/col%d", c.Kind, c.Rank, c.Bank, c.Col)
	}
}
