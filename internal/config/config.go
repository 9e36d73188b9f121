// Package config serializes experiment configurations as JSON, so runs can
// be captured, shared, and replayed exactly (cmd/memsim -config).
package config

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"fsmem/internal/addr"
	"fsmem/internal/core"
	"fsmem/internal/dram"
	"fsmem/internal/fsmerr"
	"fsmem/internal/sim"
	"fsmem/internal/workload"
)

// Experiment is the JSON shape of one simulation configuration.
type Experiment struct {
	Workload  string `json:"workload"`  // benchmark name (rate mode), "mix1", or "mix2"
	Cores     int    `json:"cores"`     // domains (ignored for mixes)
	Scheduler string `json:"scheduler"` // baseline, tp_bp, tp_np, fs_rp, fs_bp, fs_reordered_bp, fs_np, fs_np_optimized
	DRAM      string `json:"dram"`      // "ddr3-1600" (default) or "ddr4-2400"

	Reads        int64  `json:"reads"`
	Seed         uint64 `json:"seed"`
	Prefetch     bool   `json:"prefetch,omitempty"`
	Refresh      bool   `json:"refresh,omitempty"`
	TPTurnLength int64  `json:"tp_turn_length,omitempty"`
	SLAWeights   []int  `json:"sla_weights,omitempty"`

	// Channels widens the memory fabric (0 or 1 = classic single channel);
	// Routing is "colored" (default) or "interleaved" and only meaningful
	// with Channels > 1.
	Channels int    `json:"channels,omitempty"`
	Routing  string `json:"routing,omitempty"`

	EnergyOpts struct {
		SuppressDummies bool `json:"suppress_dummies,omitempty"`
		RowBufferBoost  bool `json:"row_buffer_boost,omitempty"`
		PowerDown       bool `json:"power_down,omitempty"`
	} `json:"energy_opts,omitempty"`
}

var schedulers = map[string]sim.SchedulerKind{
	"baseline":        sim.Baseline,
	"tp_bp":           sim.TPBank,
	"tp_np":           sim.TPNone,
	"fs_rp":           sim.FSRankPart,
	"fs_bp":           sim.FSBankPart,
	"fs_reordered_bp": sim.FSReorderedBank,
	"fs_np":           sim.FSNoPart,
	"fs_np_optimized": sim.FSNoPartTriple,
}

// SchedulerByName resolves one of the accepted scheduler strings
// (case-insensitively) to its kind.
func SchedulerByName(name string) (sim.SchedulerKind, bool) {
	k, ok := schedulers[strings.ToLower(name)]
	return k, ok
}

// SchedulerNames lists the accepted scheduler strings.
func SchedulerNames() []string {
	names := make([]string, 0, len(schedulers))
	for k := range schedulers {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Default returns a runnable starting configuration.
func Default() Experiment {
	e := Experiment{
		Workload:  "mcf",
		Cores:     8,
		Scheduler: "fs_rp",
		DRAM:      "ddr3-1600",
		Reads:     50_000,
		Seed:      42,
	}
	return e
}

// Load parses an experiment from JSON, rejecting unknown fields.
func Load(r io.Reader) (Experiment, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var e Experiment
	if err := dec.Decode(&e); err != nil {
		return e, fmt.Errorf("config: %w", err)
	}
	return e, nil
}

// Save writes the experiment as indented JSON.
func (e Experiment) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(e)
}

// ToSimConfig validates and converts the experiment to a sim.Config.
func (e Experiment) ToSimConfig() (sim.Config, error) {
	k, ok := schedulers[strings.ToLower(e.Scheduler)]
	if !ok {
		return sim.Config{}, fmt.Errorf("config: unknown scheduler %q (options: %s)",
			e.Scheduler, strings.Join(SchedulerNames(), ", "))
	}

	var params dram.Params
	switch strings.ToLower(e.DRAM) {
	case "", "ddr3-1600", "ddr3":
		params = dram.DDR3_1600()
	case "ddr4-2400", "ddr4":
		params = dram.DDR4_2400()
	default:
		return sim.Config{}, fmt.Errorf("config: unknown dram %q (ddr3-1600 or ddr4-2400)", e.DRAM)
	}

	cores := e.Cores
	if cores == 0 {
		cores = 8
	}
	if cores < 1 || cores > workload.MaxCores {
		return sim.Config{}, fmt.Errorf("config: cores %d out of range [1, %d]", e.Cores, workload.MaxCores)
	}
	var mix workload.Mix
	var err error
	switch e.Workload {
	case "mix1":
		mix, err = workload.Mix1()
		if err != nil {
			return sim.Config{}, err
		}
	case "mix2":
		mix, err = workload.Mix2()
		if err != nil {
			return sim.Config{}, err
		}
	default:
		mix, err = workload.Rate(e.Workload, cores)
		if err != nil {
			return sim.Config{}, err
		}
	}

	// Fabric shape: reject bad channel/routing combinations here with
	// typed errors, before a sim.Config escapes into a job queue or a
	// saved experiment file. Naming a routing on one channel is an error
	// of the file format alone: sim ignores routing there.
	routing := addr.RouteColored
	if e.Routing != "" {
		routing, err = addr.RoutingByName(e.Routing)
		if err != nil {
			return sim.Config{}, fsmerr.New(fsmerr.CodeConfig, "config.ToSimConfig",
				"routing %q: want colored or interleaved", e.Routing)
		}
		if e.Channels <= 1 {
			return sim.Config{}, fsmerr.New(fsmerr.CodeConfig, "config.ToSimConfig",
				"routing %q requires channels > 1, got %d", e.Routing, e.Channels)
		}
	}
	if err := sim.CheckFabric(e.Channels, routing, len(mix.Profiles)); err != nil {
		return sim.Config{}, err
	}

	cfg := sim.DefaultConfig(mix, k)
	cfg.DRAM = params
	cfg.Channels = e.Channels
	cfg.Routing = routing
	if e.Reads > 0 {
		cfg.TargetReads = e.Reads
	}
	if e.Seed != 0 {
		cfg.Seed = e.Seed
	}
	cfg.Prefetch = e.Prefetch
	cfg.RefreshEnabled = e.Refresh
	cfg.TPTurnLength = e.TPTurnLength
	cfg.SLAWeights = e.SLAWeights
	cfg.Energy = core.EnergyOpts{
		SuppressDummies: e.EnergyOpts.SuppressDummies,
		RowBufferBoost:  e.EnergyOpts.RowBufferBoost,
		PowerDown:       e.EnergyOpts.PowerDown,
	}
	if err := sim.CheckScheduler(cfg, len(mix.Profiles)); err != nil {
		return sim.Config{}, err
	}
	return cfg, nil
}
