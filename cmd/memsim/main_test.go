package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"

	"fsmem/internal/config"
	"fsmem/internal/sim"
)

// TestMain lets the test binary stand in for memsim: a child process that
// memsim starts runs the command's main instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("MEMSIM_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// memsim runs the command with args in a child process and returns its
// standard output and exit code.
func memsim(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MEMSIM_RUN_MAIN=1")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), 0
	case errors.As(err, &exit):
		return stdout.String(), exit.ExitCode()
	}
	t.Fatalf("memsim %v: %v", args, err)
	return "", 0
}

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

// TestConfigSelectsTheExperiment: -config replaces the flags' experiment
// for every step that takes one, not only for the plain run. Trace replay,
// trace recording and -save-config under -config each match what the
// same experiment given as flags does.
func TestConfigSelectsTheExperiment(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	run := func(args ...string) string {
		t.Helper()
		out, code := memsim(t, args...)
		if code != 0 {
			t.Fatalf("memsim %v exited %d", args, code)
		}
		return out
	}
	same := func(a, b string) {
		t.Helper()
		x, err := os.ReadFile(path(a))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(path(b))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s differs from %s", b, a)
		}
	}
	// Far from every flag default, so a step that falls back to the flags
	// writes or runs something else.
	flags := []string{"-workload", "milc", "-cores", "2", "-sched", "baseline", "-reads", "400", "-seed", "7"}
	with := func(extra ...string) []string { return append(append([]string{}, flags...), extra...) }
	run(with("-save-config", path("flags.json"))...)
	run(with("-record-trace", path("flags.trace"), "-record-count", "2000")...)

	want := run(with("-trace", path("flags.trace"))...)
	if run("-config", path("flags.json")) == want {
		t.Fatal("the trace does not change the run, so the replay check below cannot fail")
	}
	if got := run("-config", path("flags.json"), "-trace", path("flags.trace")); got != want {
		t.Errorf("-config with -trace does not replay the trace:\n got %s\nwant %s", got, want)
	}

	run("-config", path("flags.json"), "-record-trace", path("config.trace"), "-record-count", "2000")
	same("flags.trace", "config.trace")

	run("-config", path("flags.json"), "-save-config", path("config.json"))
	same("flags.json", "config.json")
}

// TestExitCodes: a bad flag is a usage error (exit 2), also beside
// -config; an unreadable or invalid -config file exits 1, whatever step
// the other flags ask for.
func TestExitCodes(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "missing.json")
	invalid := filepath.Join(dir, "invalid.json")
	if err := os.WriteFile(invalid, []byte(`{"workload": "milc", "cores": 2, "scheduler": "nope"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	valid := filepath.Join(dir, "valid.json")
	if _, code := memsim(t, "-cores", "2", "-reads", "100", "-save-config", valid); code != 0 {
		t.Fatalf("-save-config exited %d", code)
	}
	out := filepath.Join(dir, "out")
	for _, tc := range []struct {
		args []string
		code int
	}{
		{[]string{"-sched", "nope"}, 2},
		{[]string{"-workload", "nope", "-config", valid}, 2},
		{[]string{"-config", missing}, 1},
		{[]string{"-config", invalid}, 1},
		{[]string{"-config", missing, "-save-config", out}, 1},
		{[]string{"-config", invalid, "-record-trace", out}, 1},
		{[]string{"-config", valid, "-reads", "0"}, 2},
	} {
		if _, code := memsim(t, tc.args...); code != tc.code {
			t.Errorf("memsim %v exited %d, want %d", tc.args, code, tc.code)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a failed -config still wrote %s (stat: %v)", out, err)
	}
}

// TestFailedRunWritesProfiles: memsim stops its profiles before it exits
// with an error code, so a failing run leaves complete CPU and heap
// profiles, not an empty CPU profile and no heap profile.
func TestFailedRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu, heap := filepath.Join(dir, "cpu"), filepath.Join(dir, "heap")
	// 3 domains do not split over 2 colored channels: a config error.
	if _, code := memsim(t, "-cores", "3", "-channels", "2", "-reads", "100", "-cpuprofile", cpu, "-memprofile", heap); code != 2 {
		t.Fatalf("memsim exited %d, want 2", code)
	}
	for _, p := range []string{cpu, heap} {
		if st, err := os.Stat(p); err != nil || st.Size() == 0 {
			t.Errorf("profile %s not written (stat: %v)", filepath.Base(p), err)
		}
	}
}
