package main

import (
	"bytes"
	"flag"
	"reflect"
	"testing"

	"fsmem/internal/config"
	"fsmem/internal/sim"
)

// runConfig parses memsim's run-shaping flags and returns the experiment
// they select and the config the run uses.
func runConfig(t *testing.T, args ...string) (config.Experiment, sim.Config) {
	t.Helper()
	var f runFlags
	fs := flag.NewFlagSet("memsim", flag.ContinueOnError)
	f.register(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	e, err := f.experiment()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	cfg, err := e.ToSimConfig()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return e, cfg
}

// TestSaveConfigReplaysRun round-trips every flag that shapes the run:
// each changes the run's config, and the experiment -save-config writes
// loads back into exactly that config (what -config replays).
func TestSaveConfigReplaysRun(t *testing.T) {
	_, base := runConfig(t)
	for _, args := range [][]string{
		{"-workload", "mix1"},
		{"-workload", "milc", "-cores", "4"},
		{"-sched", "tp_bp"},
		{"-reads", "1234"},
		{"-seed", "7"},
		{"-prefetch"},
		{"-energy-opts"},
		{"-refresh"},
		{"-weights", "2,1,1,1,1,1,1,1"},
		{"-channels", "4"},
		{"-channels", "2", "-routing", "interleaved"},
		{"-sched", "fs_rp", "-energy-opts", "-weights", "2,1,1,1,1,1,1,1", "-reads", "3000"},
	} {
		e, run := runConfig(t, args...)
		if reflect.DeepEqual(run, base) {
			t.Errorf("%v does not change the run", args)
		}
		var saved bytes.Buffer
		if err := e.Save(&saved); err != nil {
			t.Fatal(err)
		}
		loaded, err := config.Load(&saved)
		if err != nil {
			t.Fatal(err)
		}
		replay, err := loaded.ToSimConfig()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(run, replay) {
			t.Errorf("%v: replayed config differs from the run:\nrun    %+v\nreplay %+v", args, run, replay)
		}
	}
}

// TestRunFlagsRejectUnsavable: flag values a saved experiment would read
// differently (or not at all) are usage errors, not silent substitutions.
func TestRunFlagsRejectUnsavable(t *testing.T) {
	for _, args := range [][]string{
		{"-reads", "0"},
		{"-reads", "-5"},
		{"-seed", "0"},
		{"-cores", "0"},
		{"-sched", "nope"},
		{"-routing", "striped"},
		{"-weights", "2,x"},
	} {
		var f runFlags
		fs := flag.NewFlagSet("memsim", flag.ContinueOnError)
		f.register(fs)
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		if _, err := f.experiment(); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}
