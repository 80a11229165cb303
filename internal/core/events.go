package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"gptpfta/internal/sim"
)

// Event is one timestamped occurrence in an experiment run: VM failures,
// reboots, CLOCK_SYNCTIME takeovers, ptp4l transient software faults,
// mode changes, exploit attempts — everything Fig. 5 plots as markers.
type Event struct {
	At     sim.Time
	Node   string
	VM     string
	Kind   string
	Detail string
}

// String renders the event like the experiment logs.
func (e Event) String() string {
	s := fmt.Sprintf("[%12v] %-5s %-4s %-22s", e.At, e.Node, e.VM, e.Kind)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return s
}

// EventLog accumulates events in time order: its one writer is the
// system's scheduler goroutine (its components, and drivers through
// System.LogEvent), so appends are naturally ordered.
type EventLog struct {
	events []Event
}

// NewEventLog creates an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// add records an event.
func (l *EventLog) add(e Event) { l.events = append(l.events, e) }

// Events snapshots the full log.
func (l *EventLog) Events() []Event {
	return append([]Event(nil), l.events...)
}

// Len reports the number of events.
func (l *EventLog) Len() int { return len(l.events) }

// Window returns events within [from, to].
func (l *EventLog) Window(from, to sim.Time) []Event {
	var out []Event
	for _, e := range l.events {
		if e.At >= from && e.At <= to {
			out = append(out, e)
		}
	}
	return out
}

// CountsByKind tallies events per kind.
func (l *EventLog) CountsByKind() map[string]int {
	out := make(map[string]int)
	for _, e := range l.events {
		out[e.Kind]++
	}
	return out
}

// CountsByKindAndDetail tallies events per (kind, detail) pair — used to
// split ptp4l faults into tx-timestamp timeouts and deadline misses.
func (l *EventLog) CountsByKindAndDetail() map[string]int {
	out := make(map[string]int)
	for _, e := range l.events {
		key := e.Kind
		if e.Detail != "" {
			key += "/" + e.Detail
		}
		out[key]++
	}
	return out
}

// WriteCSV exports the log as CSV ("at_ns,node,vm,kind,detail") for
// external plotting of Fig. 5-style event timelines.
func (l *EventLog) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"at_ns", "node", "vm", "kind", "detail"}); err != nil {
		return err
	}
	for _, e := range l.events {
		rec := []string{
			strconv.FormatInt(int64(e.At), 10),
			e.Node, e.VM, e.Kind, e.Detail,
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
