package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Record is one JSONL line: a metric tagged with the run (experiment or
// campaign section) it was snapshotted from.
type Record struct {
	Run string `json:"run,omitempty"`
	Metric
}

// WriteJSONL appends one line per metric to w, each tagged with run. The
// metrics keep their Snapshot order, so repeated exports of the same run are
// byte-identical.
func WriteJSONL(w io.Writer, run string, metrics []Metric) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, m := range metrics {
		if err := enc.Encode(Record{Run: run, Metric: m}); err != nil {
			return fmt.Errorf("obs: encode metric %s: %w", m.Name, err)
		}
	}
	return bw.Flush()
}

// Tagged is one run's metrics snapshot together with the run tag its JSONL
// lines carry.
type Tagged struct {
	Run     string
	Metrics []Metric
}

// WriteJSONLFile creates path and writes every snapshot to it, in order,
// through WriteJSONL: the one file format behind every command's -metrics
// flag.
func WriteJSONLFile(path string, snaps ...Tagged) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	for _, s := range snaps {
		if err := WriteJSONL(f, s.Run, s.Metrics); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// ReadJSONL parses a metrics snapshot file written by WriteJSONL. Blank
// lines are ignored; any other malformed line is an error.
func ReadJSONL(r io.Reader) ([]Record, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var out []Record
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" {
			continue
		}
		var rec Record
		if err := json.Unmarshal([]byte(text), &rec); err != nil {
			return nil, fmt.Errorf("obs: line %d: %w", line, err)
		}
		if rec.Name == "" {
			return nil, fmt.Errorf("obs: line %d: metric without a name", line)
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}
