package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"fsmem/internal/dram"
)

// Trace files are JSONL: a header object on the first line, then one event
// object per line. Fields are emitted in a fixed order by hand so exports
// are byte-deterministic (encoding/json map iteration never touches them).
//
//	{"fsmem_trace":1,"events":123,"dropped":0}
//	{"c":40,"k":"cmd","dom":0,"cmd":"ACT","rank":0,"bank":1,"row":17,"col":0,"arg":0,"sup":0,"w":0}
//
// The Chrome exporter emits the same events in the trace_event JSON-array
// format, loadable in Perfetto / chrome://tracing: commands as 1-cycle
// slices, delivered reads as latency-long slices, slot substitutions and
// rejected enqueues as instants. Cycle numbers are mapped 1:1 onto
// microseconds.

// jsonlEvent is the parse shape of one exported line (reader side only; the
// writer formats by hand).
type jsonlEvent struct {
	C   int64  `json:"c"`
	K   string `json:"k"`
	Dom int16  `json:"dom"`
	Ch  int16  `json:"ch"` // absent in pre-fabric traces; defaults to 0

	Cmd  string `json:"cmd"`
	Rank int16  `json:"rank"`
	Bank int16  `json:"bank"`
	Row  int32  `json:"row"`
	Col  int32  `json:"col"`
	Arg  int64  `json:"arg"`
	Sup  int    `json:"sup"`
	W    int    `json:"w"`
}

type jsonlHeader struct {
	Version int   `json:"fsmem_trace"`
	Events  int   `json:"events"`
	Dropped int64 `json:"dropped"`
}

var kindByName = func() map[string]EventKind {
	m := make(map[string]EventKind, len(eventNames))
	for k, n := range eventNames {
		m[n] = EventKind(k)
	}
	return m
}()

var cmdByName = func() map[string]dram.Kind {
	m := map[string]dram.Kind{}
	for k := dram.KindActivate; k <= dram.KindRefresh; k++ {
		m[k.String()] = k
	}
	return m
}()

// WriteJSONL serializes the tracer's events (header line first).
func WriteJSONL(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	events := t.Events()
	if _, err := fmt.Fprintf(bw, `{"fsmem_trace":1,"events":%d,"dropped":%d}`+"\n",
		len(events), t.Dropped()); err != nil {
		return err
	}
	for _, e := range events {
		sup, wr := 0, 0
		if e.Flags&FlagSuppressed != 0 {
			sup = 1
		}
		if e.Flags&FlagWrite != 0 {
			wr = 1
		}
		cmd := ""
		if e.Kind == EvCmd {
			cmd = e.Cmd.String()
		}
		if _, err := fmt.Fprintf(bw,
			`{"c":%d,"k":"%s","dom":%d,"ch":%d,"cmd":"%s","rank":%d,"bank":%d,"row":%d,"col":%d,"arg":%d,"sup":%d,"w":%d}`+"\n",
			e.Cycle, e.Kind, e.Domain, e.Chan, cmd, e.Rank, e.Bank, e.Row, e.Col, e.Arg, sup, wr); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSONL trace (cmd/tracedump's ingestion path). The
// header line is validated when present; unknown event kinds are an error
// so a corrupted file cannot silently render as an empty timeline.
func ReadJSONL(r io.Reader) ([]Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	var out []Event
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if lineNo == 1 && strings.Contains(line, `"fsmem_trace"`) {
			var h jsonlHeader
			if err := json.Unmarshal([]byte(line), &h); err != nil {
				return nil, fmt.Errorf("obs: trace header: %w", err)
			}
			if h.Version != 1 {
				return nil, fmt.Errorf("obs: unsupported trace version %d", h.Version)
			}
			continue
		}
		var je jsonlEvent
		if err := json.Unmarshal([]byte(line), &je); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", lineNo, err)
		}
		kind, ok := kindByName[je.K]
		if !ok {
			return nil, fmt.Errorf("obs: trace line %d: unknown event kind %q", lineNo, je.K)
		}
		e := Event{
			Cycle: je.C, Kind: kind, Arg: je.Arg, Domain: je.Dom, Chan: je.Ch,
			Rank: je.Rank, Bank: je.Bank, Row: je.Row, Col: je.Col,
		}
		if je.Sup != 0 {
			e.Flags |= FlagSuppressed
		}
		if je.W != 0 {
			e.Flags |= FlagWrite
		}
		if kind == EvCmd {
			ck, ok := cmdByName[je.Cmd]
			if !ok {
				return nil, fmt.Errorf("obs: trace line %d: unknown command %q", lineNo, je.Cmd)
			}
			e.Cmd = ck
		}
		out = append(out, e)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("obs: trace has no events")
	}
	return out, nil
}

// WriteChrome serializes the tracer's events in Chrome trace_event format.
func WriteChrome(w io.Writer, t *Tracer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprint(bw, "[\n"); err != nil {
		return err
	}
	first := true
	emit := func(format string, args ...interface{}) error {
		if !first {
			if _, err := fmt.Fprint(bw, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err := fmt.Fprintf(bw, format, args...)
		return err
	}
	for _, e := range t.Events() {
		var err error
		switch e.Kind {
		case EvCmd:
			name := e.Cmd.String()
			if e.Flags&FlagSuppressed != 0 {
				name += "*"
			}
			err = emit(`{"name":"%s","cat":"bus","ph":"X","ts":%d,"dur":1,"pid":0,"tid":%d,"args":{"rank":%d,"bank":%d,"row":%d,"col":%d}}`,
				name, e.Cycle, e.Domain, e.Rank, e.Bank, e.Row, e.Col)
		case EvDeliver:
			err = emit(`{"name":"read","cat":"req","ph":"X","ts":%d,"dur":%d,"pid":1,"tid":%d,"args":{"rank":%d,"bank":%d,"row":%d,"col":%d}}`,
				e.Cycle-e.Arg, e.Arg, e.Domain, e.Rank, e.Bank, e.Row, e.Col)
		case EvDummySlot:
			err = emit(`{"name":"slot:%s","cat":"fs","ph":"i","ts":%d,"pid":0,"tid":%d,"s":"t"}`,
				slotSubName(e.Arg), e.Cycle, e.Domain)
		case EvQueueFull:
			err = emit(`{"name":"queue-full","cat":"mem","ph":"i","ts":%d,"pid":1,"tid":%d,"s":"t"}`,
				e.Cycle, e.Domain)
		default:
			// Enqueue/first-command/write/dummy/prefetch retirements add
			// little over the slices above; keep the Chrome view compact.
			continue
		}
		if err != nil {
			return err
		}
	}
	if _, err := fmt.Fprint(bw, "\n]\n"); err != nil {
		return err
	}
	return bw.Flush()
}

func slotSubName(arg int64) string {
	switch arg {
	case SlotDummy:
		return "dummy"
	case SlotPowerDown:
		return "powerdown"
	case SlotSkip:
		return "skip"
	case SlotRefresh:
		return "refresh"
	}
	return "?"
}

// Timeline renders events as a human-readable per-cycle listing — the
// schedule-deviation forensics view cmd/tracedump prints. Events stay in
// recording order; each line carries the bus cycle, the owning domain, and
// a one-line description.
func Timeline(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	// The channel column only appears for multi-channel traces, so
	// single-channel timelines render exactly as they always have.
	multiChan := false
	for _, e := range events {
		if e.Chan != 0 {
			multiChan = true
			break
		}
	}
	for _, e := range events {
		dom := fmt.Sprintf("dom%d", e.Domain)
		if e.Domain < 0 {
			dom = "-"
		}
		if multiChan {
			dom = fmt.Sprintf("ch%d/%s", e.Chan, dom)
		}
		var desc string
		switch e.Kind {
		case EvCmd:
			sup := ""
			if e.Flags&FlagSuppressed != 0 {
				sup = " (suppressed)"
			}
			switch e.Cmd {
			case dram.KindRefresh:
				desc = fmt.Sprintf("%-4s r%d%s", e.Cmd, e.Rank, sup)
			case dram.KindActivate:
				desc = fmt.Sprintf("%-4s r%d/b%d/row%d%s", e.Cmd, e.Rank, e.Bank, e.Row, sup)
			case dram.KindPrecharge:
				desc = fmt.Sprintf("%-4s r%d/b%d%s", e.Cmd, e.Rank, e.Bank, sup)
			default:
				desc = fmt.Sprintf("%-4s r%d/b%d/col%d%s", e.Cmd, e.Rank, e.Bank, e.Col, sup)
			}
		case EvEnqueue:
			desc = fmt.Sprintf("enqueue read r%d/b%d/row%d/col%d", e.Rank, e.Bank, e.Row, e.Col)
		case EvFirstCmd:
			op := "read"
			if e.Flags&FlagWrite != 0 {
				op = "write"
			}
			desc = fmt.Sprintf("first cmd for %s r%d/b%d/row%d (queued %d cycles)", op, e.Rank, e.Bank, e.Row, e.Arg)
		case EvDeliver:
			desc = fmt.Sprintf("deliver read r%d/b%d/row%d/col%d latency=%d", e.Rank, e.Bank, e.Row, e.Col, e.Arg)
		case EvWriteDone:
			desc = fmt.Sprintf("write retired r%d/b%d/row%d", e.Rank, e.Bank, e.Row)
		case EvDummy:
			desc = fmt.Sprintf("dummy retired r%d/b%d", e.Rank, e.Bank)
		case EvPrefetchFill:
			desc = fmt.Sprintf("prefetch filled r%d/b%d/row%d/col%d", e.Rank, e.Bank, e.Row, e.Col)
		case EvDummySlot:
			desc = fmt.Sprintf("slot substituted: %s", slotSubName(e.Arg))
		case EvQueueFull:
			q := "read queue"
			if e.Arg == 1 {
				q = "write buffer"
			}
			desc = fmt.Sprintf("enqueue rejected: %s full", q)
		default:
			desc = fmt.Sprintf("event kind %d", e.Kind)
		}
		if _, err := fmt.Fprintf(bw, "cycle %10d  %-6s %s\n", e.Cycle, dom, desc); err != nil {
			return err
		}
	}
	return bw.Flush()
}
