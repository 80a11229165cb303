package measure

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
)

// WriteSamplesCSV writes the per-second precision series as CSV with the
// header "seq,at_sec,pi_star_ns,replies" — the raw data behind Fig. 4a.
func WriteSamplesCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"seq", "at_sec", "pi_star_ns", "replies"}); err != nil {
		return err
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatUint(s.Seq, 10),
			strconv.FormatFloat(s.AtSec, 'f', 3, 64),
			strconv.FormatFloat(s.PiStarNS, 'f', 1, 64),
			strconv.Itoa(s.Replies),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteWindowsCSV writes aggregated windows ("start_sec,min_ns,avg_ns,
// max_ns,count") — the plotted form of Fig. 4a.
func WriteWindowsCSV(w io.Writer, windows []Window) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"start_sec", "min_ns", "avg_ns", "max_ns", "count"}); err != nil {
		return err
	}
	for _, win := range windows {
		rec := []string{
			strconv.FormatFloat(win.StartSec, 'f', 1, 64),
			strconv.FormatFloat(win.MinNS, 'f', 1, 64),
			strconv.FormatFloat(win.AvgNS, 'f', 1, 64),
			strconv.FormatFloat(win.MaxNS, 'f', 1, 64),
			strconv.Itoa(win.Count),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteHistogramCSV writes the Fig. 4b distribution ("bucket_lo_ns,count").
func WriteHistogramCSV(w io.Writer, h Histogram) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"bucket_lo_ns", "count"}); err != nil {
		return err
	}
	for i, c := range h.Counts {
		rec := []string{
			strconv.FormatFloat(float64(i)*h.BucketWidthNS, 'f', 0, 64),
			strconv.Itoa(c),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	if h.Overflow > 0 {
		if err := cw.Write([]string{"overflow", strconv.Itoa(h.Overflow)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// ParseSamplesCSV reads back a series written by WriteSamplesCSV — round-
// tripping experiment data between tools. It fails closed: a non-finite
// at_sec or pi_star_ns, or a negative pi_star_ns or replies, is an error,
// since the collector never writes one and a NaN Π* would compare as no
// violation.
func ParseSamplesCSV(r io.Reader) ([]Sample, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 {
		return nil, nil
	}
	out := make([]Sample, 0, len(records)-1)
	for i, rec := range records[1:] {
		if len(rec) != 4 {
			return nil, fmt.Errorf("measure: csv row %d has %d fields, want 4", i+2, len(rec))
		}
		seq, err := strconv.ParseUint(rec[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("measure: csv row %d seq: %w", i+2, err)
		}
		at, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			return nil, fmt.Errorf("measure: csv row %d at_sec: %w", i+2, err)
		}
		if math.IsNaN(at) || math.IsInf(at, 0) {
			return nil, fmt.Errorf("measure: csv row %d at_sec %q is not finite", i+2, rec[1])
		}
		pi, err := strconv.ParseFloat(rec[2], 64)
		if err != nil {
			return nil, fmt.Errorf("measure: csv row %d pi_star_ns: %w", i+2, err)
		}
		if math.IsNaN(pi) || math.IsInf(pi, 0) || pi < 0 {
			return nil, fmt.Errorf("measure: csv row %d pi_star_ns %q is not finite and non-negative", i+2, rec[2])
		}
		replies, err := strconv.Atoi(rec[3])
		if err != nil {
			return nil, fmt.Errorf("measure: csv row %d replies: %w", i+2, err)
		}
		if replies < 0 {
			return nil, fmt.Errorf("measure: csv row %d replies %d is negative", i+2, replies)
		}
		out = append(out, Sample{Seq: seq, AtSec: at, PiStarNS: pi, Replies: replies})
	}
	return out, nil
}
