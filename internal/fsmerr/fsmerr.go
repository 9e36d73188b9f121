// Package fsmerr defines the structured error type shared across the
// simulator's library paths. Every error that can escape the public fsmem
// API carries a Code classifying the failure and, where meaningful, the
// offending bus cycle and DRAM command — so a caller sweeping thousands of
// design points can aggregate failures mechanically instead of parsing
// message strings, and the fault-injection harness can distinguish "the
// schedule broke" from "the configuration was malformed".
package fsmerr

import (
	"errors"
	"fmt"

	"fsmem/internal/dram"
)

// Code classifies an error for programmatic handling.
type Code string

// The error-code taxonomy (see DESIGN.md §7).
const (
	// CodeConfig: a Config, Params, or engine parameter set is malformed.
	CodeConfig Code = "config"
	// CodeWorkload: a workload profile or mix is invalid or unknown.
	CodeWorkload Code = "workload"
	// CodeTiming: a command violated a DRAM timing constraint at issue.
	CodeTiming Code = "timing"
	// CodeSchedule: the observed command stream diverged from the static
	// Fixed Service schedule (the non-interference monitor's verdict).
	CodeSchedule Code = "schedule"
	// CodeQueue: controller queue bookkeeping failed (e.g. removing a
	// request that is not queued).
	CodeQueue Code = "queue"
	// CodeExperiment: a figure or ablation could not be regenerated.
	CodeExperiment Code = "experiment"
	// CodeFault: an injected fault could not be applied as planned.
	CodeFault Code = "fault"
	// CodeCanceled: the caller's context was canceled before the run (or
	// sweep cell) completed; partial state was discarded, not cached.
	CodeCanceled Code = "canceled"
	// CodePanic: a worker-pool cell panicked; the pool isolated it and
	// converted the panic into this error instead of crashing the sweep.
	CodePanic Code = "panic"
	// CodeStorage: the daemon's durability layer (job journal or disk
	// result store) could not persist or recover state.
	CodeStorage Code = "storage"
)

// NoCycle marks an error that is not tied to a specific bus cycle.
const NoCycle = int64(-1)

// Error is the structured error type of the fsmem library.
type Error struct {
	Code  Code
	Op    string // the operation that failed, e.g. "sim.New" or "fs.issue"
	Cycle int64  // offending bus cycle, or NoCycle
	Cmd   *dram.Command
	Err   error  // wrapped cause, may be nil
	Msg   string // human-readable detail
}

// Error implements the error interface.
func (e *Error) Error() string {
	s := fmt.Sprintf("%s [%s]", e.Op, e.Code)
	if e.Msg != "" {
		s += ": " + e.Msg
	}
	if e.Cmd != nil {
		s += fmt.Sprintf(" (cmd %v)", *e.Cmd)
	}
	if e.Cycle != NoCycle {
		s += fmt.Sprintf(" (cycle %d)", e.Cycle)
	}
	if e.Err != nil {
		s += ": " + e.Err.Error()
	}
	return s
}

// Unwrap returns the wrapped cause.
func (e *Error) Unwrap() error { return e.Err }

// New builds an Error with a formatted message and no cycle/command.
func New(code Code, op, format string, args ...interface{}) *Error {
	return &Error{Code: code, Op: op, Cycle: NoCycle, Msg: fmt.Sprintf(format, args...)}
}

// Wrap attaches a code and operation to an existing error. A nil err
// returns nil; an err that already is an *Error is returned unchanged so
// codes assigned close to the failure survive outer wrapping.
func Wrap(code Code, op string, err error) error {
	if err == nil {
		return nil
	}
	var fe *Error
	if errors.As(err, &fe) {
		return err
	}
	return &Error{Code: code, Op: op, Cycle: NoCycle, Err: err}
}

// At builds a timing-class error pinned to a cycle and command.
func At(code Code, op string, cycle int64, cmd dram.Command, err error) *Error {
	c := cmd
	return &Error{Code: code, Op: op, Cycle: cycle, Cmd: &c, Err: err}
}

// CodeOf extracts the Code of an error, or "" when it is not an *Error.
func CodeOf(err error) Code {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Code
	}
	return ""
}
