package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"gptpfta/internal/chaos"
	"gptpfta/internal/core"
	"gptpfta/internal/measure"
)

// RenderSeries draws an ASCII time/precision chart on a logarithmic y-axis,
// mirroring the paper's figure style (Π* windows plus the Π and Π+γ
// reference lines). Each column is one aggregation window showing the
// min–max span and the average.
func RenderSeries(windows []measure.Window, bound, gamma time.Duration, height int) string {
	if len(windows) == 0 {
		return "(no data)\n"
	}
	if height <= 0 {
		height = 16
	}
	logOf := func(v float64) float64 {
		if v < 1 {
			v = 1
		}
		return math.Log10(v)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, w := range windows {
		if l := logOf(w.MinNS); l < lo {
			lo = l
		}
		if h := logOf(w.MaxNS); h > hi {
			hi = h
		}
	}
	boundLog := logOf(float64(bound))
	boundGammaLog := logOf(float64(bound + gamma))
	if boundGammaLog > hi {
		hi = boundGammaLog
	}
	if boundLog < lo {
		lo = boundLog
	}
	lo = math.Floor(lo)
	hi = math.Ceil(hi)
	if hi <= lo {
		hi = lo + 1
	}

	width := len(windows)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	row := func(logV float64) int {
		frac := (logV - lo) / (hi - lo)
		r := height - 1 - int(frac*float64(height-1)+0.5)
		if r < 0 {
			r = 0
		}
		if r >= height {
			r = height - 1
		}
		return r
	}
	// Π and Π+γ reference lines.
	for c := 0; c < width; c++ {
		grid[row(boundLog)][c] = '-'
		grid[row(boundGammaLog)][c] = '='
	}
	for c, w := range windows {
		top := row(logOf(w.MaxNS))
		bot := row(logOf(w.MinNS))
		for r := top; r <= bot; r++ {
			grid[r][c] = ':'
		}
		grid[row(logOf(w.AvgNS))][c] = '*'
	}

	var b strings.Builder
	for r := 0; r < height; r++ {
		frac := float64(height-1-r) / float64(height-1)
		label := math.Pow(10, lo+frac*(hi-lo))
		fmt.Fprintf(&b, "%9s |%s|\n", shortNS(label), string(grid[r]))
	}
	fmt.Fprintf(&b, "%9s +%s+\n", "", strings.Repeat("-", width))
	fmt.Fprintf(&b, "%9s  t=0%s t=%s\n", "", strings.Repeat(" ", maxInt(0, width-12)),
		time.Duration(windows[len(windows)-1].StartSec*float64(time.Second)).Truncate(time.Minute))
	fmt.Fprintf(&b, "legend: '*' window avg, ':' window min-max, '-' Pi=%v, '=' Pi+gamma=%v\n",
		bound, bound+gamma)
	return b.String()
}

func shortNS(v float64) string {
	switch {
	case v >= 1e9:
		return fmt.Sprintf("%.0fs", v/1e9)
	case v >= 1e6:
		return fmt.Sprintf("%.0fms", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.0fus", v/1e3)
	default:
		return fmt.Sprintf("%.0fns", v)
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// RenderTable aligns a Rows() table into fixed-width columns, one line per
// row, each prefixed with indent.
func RenderTable(rows [][]string, indent string) string {
	var widths []int
	for _, row := range rows {
		for i, cell := range row {
			if i == len(widths) {
				widths = append(widths, 0)
			}
			widths[i] = max(widths[i], len(cell))
		}
	}
	var b, line strings.Builder
	for _, row := range rows {
		line.Reset()
		for i, cell := range row {
			if i > 0 {
				line.WriteString("  ")
			}
			fmt.Fprintf(&line, "%-*s", widths[i], cell)
		}
		b.WriteString(indent + strings.TrimRight(line.String(), " ") + "\n")
	}
	return b.String()
}

// RenderHistogram draws the Fig. 4b distribution as horizontal bars.
func RenderHistogram(h measure.Histogram, maxBar int) string {
	if len(h.Counts) == 0 {
		return "(no data)\n"
	}
	if maxBar <= 0 {
		maxBar = 50
	}
	peak := 1
	for _, c := range h.Counts {
		if c > peak {
			peak = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		lo := float64(i) * h.BucketWidthNS
		bar := strings.Repeat("#", c*maxBar/peak)
		fmt.Fprintf(&b, "%8s |%-*s %d\n", shortNS(lo), maxBar, bar, c)
	}
	if h.Overflow > 0 {
		fmt.Fprintf(&b, "%8s |%d beyond range\n", ">", h.Overflow)
	}
	return b.String()
}

// RenderEvents lists Fig. 5-style event markers with offsets relative to
// the window start.
func RenderEvents(events []core.Event, fromSec float64) string {
	if len(events) == 0 {
		return "(no events)\n"
	}
	var b strings.Builder
	for _, e := range events {
		offset := time.Duration(float64(e.At) - fromSec*1e9).Truncate(time.Millisecond)
		marker := "x"
		switch e.Kind {
		case "vm_failed":
			marker = "v" // triangles in the paper
		case "takeover":
			marker = "*" // stars in the paper
		case "vm_rebooted":
			marker = "^"
		}
		fmt.Fprintf(&b, "  [%s] +%-12v %-5s %-4s %s %s\n", marker, offset, e.Node, e.VM, e.Kind, e.Detail)
	}
	return b.String()
}

// writePlanLine names the chaos plan a figure's run composed, if any.
func writePlanLine(b *strings.Builder, p *chaos.Plan) {
	if p != nil {
		fmt.Fprintf(b, "chaos plan %q: %d actions\n", p.Name, len(p.Actions))
	}
}
