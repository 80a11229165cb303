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

// EventLog accumulates events in time order. Each log has a single writer
// (one shard's scheduler, or the control scheduler), so appends are
// naturally ordered; a sharded system keeps one log per scheduler and
// presents MergeEventLogs of them.
type EventLog struct {
	events []Event
}

// NewEventLog creates an empty log.
func NewEventLog() *EventLog { return &EventLog{} }

// Append records an event.
func (l *EventLog) Append(e Event) { l.events = append(l.events, e) }

// MergeEventLogs combines per-scheduler logs into one time-ordered log.
// Entries at equal timestamps keep the argument order of their source logs
// (pass the control log first: its events fire before same-instant shard
// events), and within one source log the original append order. The merge
// is deterministic, so the combined view is independent of shard count for
// order-insensitive consumers (counts, windows) by construction.
func MergeEventLogs(logs ...*EventLog) *EventLog {
	n := 0
	for _, l := range logs {
		n += len(l.events)
	}
	out := &EventLog{events: make([]Event, 0, n)}
	// Index-based k-way merge; k is tiny (shard count + 1).
	pos := make([]int, len(logs))
	for len(out.events) < n {
		best := -1
		for i, l := range logs {
			if pos[i] >= len(l.events) {
				continue
			}
			if best < 0 || l.events[pos[i]].At < logs[best].events[pos[best]].At {
				best = i
			}
		}
		out.events = append(out.events, logs[best].events[pos[best]])
		pos[best]++
	}
	return out
}

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
