// Strategy library: the parameterized attacker families the audit engine
// searches over, plus the neighborhood generator the adaptive loop uses to
// refine promising attacks. Every attack is a deterministic value — names
// encode the full mutation path, so per-attack seeds derived from names
// are independent of evaluation order and worker count.
package audit

import (
	"fmt"

	"fsmem/internal/leakage"
	"fsmem/internal/workload"
)

// Attack fully parameterizes one covert-channel strategy: the receiver's
// probe profile, the sender's on/off modulation profiles, and the shared
// per-bit observation window. The struct doubles as the wire-level attack
// description inside a certificate.
type Attack struct {
	// Name identifies the strategy family and, for refined attacks, the
	// mutation path (e.g. "intensity-hi/w2/on1.5").
	Name string `json:"name"`
	// Probe is the receiver's steady workload; its progress per window is
	// the observable.
	Probe workload.Profile `json:"probe"`
	// On and Off are the sender's profiles for a 1 and a 0 bit.
	On  workload.Profile `json:"on"`
	Off workload.Profile `json:"off"`
	// WindowBusCycles is the per-bit observation window both sides agree
	// on (the receiver's integration time).
	WindowBusCycles int64 `json:"window_bus_cycles"`
}

// synth builds an attack profile with explicit spatial behavior, unlike
// workload.Synthetic which fixes locality and spread.
func synth(name string, read, write, locality float64, spread, rows int, burst float64) workload.Profile {
	return workload.Profile{
		Name:          name,
		ReadMPKI:      read,
		WriteMPKI:     write,
		RowLocality:   locality,
		BankSpread:    spread,
		Burstiness:    burst,
		FootprintRows: rows,
	}
}

// Library returns the base strategy families, all sharing the given
// default window:
//
//   - intensity-*: the classic burst/idle sender (leakage.CovertLoads)
//     at three modulation depths;
//   - bank-conflict: equal-intensity sender that modulates *where* it
//     hits — scattered across banks with no row reuse versus pinned to
//     one hot row — so only spatial interference distinguishes the bits;
//   - rw-mix: equal-intensity sender that modulates its read/write mix,
//     targeting bus-turnaround and write-recovery coupling;
//   - phase-*: the burst/idle sender probed at half and double the
//     receiver window, sweeping the timing alignment of the channel.
func Library(window int64) []Attack {
	probe, burst, quiet := leakage.CovertLoads()
	return []Attack{
		{Name: "intensity-hi", Probe: probe, On: burst, Off: quiet, WindowBusCycles: window},
		{Name: "intensity-mid", Probe: probe, On: workload.Synthetic("mid", 45), Off: workload.Synthetic("low", 5), WindowBusCycles: window},
		{Name: "intensity-lo", Probe: probe, On: workload.Synthetic("soft", 24), Off: quiet, WindowBusCycles: window},
		{
			Name:  "bank-conflict",
			Probe: probe,
			On:    synth("scatter", 28, 12, 0.05, 8, 4096, 0.7),
			Off:   synth("pinned", 28, 12, 0.95, 1, 64, 0.7),

			WindowBusCycles: window,
		},
		{
			Name:  "rw-mix",
			Probe: probe,
			On:    synth("writer", 8, 32, 0.5, 4, 1024, 0.5),
			Off:   synth("reader", 32, 8, 0.5, 4, 1024, 0.5),

			WindowBusCycles: window,
		},
		{Name: "phase-half", Probe: probe, On: burst, Off: quiet, WindowBusCycles: window / 2},
		{Name: "phase-double", Probe: probe, On: burst, Off: quiet, WindowBusCycles: window * 2},
	}
}

// mutation limits: windows and intensities outside these bounds either
// cannot carry a bit or blow the campaign budget.
const (
	minWindow    = 2048
	maxWindowMul = 8
	minMPKI      = 0.01
	maxMPKI      = 80
)

func scaleProfile(p workload.Profile, f float64) workload.Profile {
	p.ReadMPKI *= f
	p.WriteMPKI *= f
	if t := p.ReadMPKI + p.WriteMPKI; t < minMPKI {
		p.ReadMPKI, p.WriteMPKI = minMPKI, 0
	} else if t > maxMPKI {
		s := maxMPKI / t
		p.ReadMPKI *= s
		p.WriteMPKI *= s
	}
	return p
}

// Neighbors generates the adaptive-search neighborhood of an attack:
// receiver window halved and doubled (receiver-side co-tuning), sender
// modulation deepened and shallowed, and receiver probe pressure scaled.
// Out-of-bounds mutations are dropped; names record the mutation so the
// same attack always evaluates under the same derived seed.
func Neighbors(a Attack, baseWindow int64) []Attack {
	var out []Attack
	add := func(n Attack, suffix string) {
		n.Name = a.Name + "/" + suffix
		out = append(out, n)
	}

	if w := a.WindowBusCycles / 2; w >= minWindow {
		n := a
		n.WindowBusCycles = w
		add(n, "w0.5")
	}
	if w := a.WindowBusCycles * 2; w <= baseWindow*maxWindowMul {
		n := a
		n.WindowBusCycles = w
		add(n, "w2")
	}
	for _, f := range []float64{1.5, 0.6} {
		n := a
		n.On = scaleProfile(a.On, f)
		add(n, fmt.Sprintf("on%g", f))
	}
	for _, f := range []float64{2, 0.5} {
		n := a
		n.Probe = scaleProfile(a.Probe, f)
		add(n, fmt.Sprintf("probe%g", f))
	}
	return out
}
