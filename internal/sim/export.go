package sim

import (
	"fmt"
	"sort"
	"strings"

	"andorsched/internal/power"
)

// svgLane is the pixel height of one processor lane.
const (
	svgLane   = 34
	svgHeader = 24
	svgWidth  = 960
	svgMargin = 60
)

// SVG renders a schedule as a self-contained SVG timeline: one lane per
// processor, task blocks shaded by voltage/speed level (darker = faster),
// overhead slivers in red, and a dashed deadline marker. Suitable for
// embedding in reports; no external assets. Shades are relative to the DVS
// table of each processor's class on machine h.
func SVG(h *power.Hetero, entries []GanttEntry, deadline float64) string {
	if len(entries) == 0 {
		return `<svg xmlns="http://www.w3.org/2000/svg" width="200" height="40"><text x="8" y="24">empty schedule</text></svg>`
	}
	maxProc := 0
	end := deadline
	for _, e := range entries {
		if e.Proc > maxProc {
			maxProc = e.Proc
		}
		if e.Finish > end {
			end = e.Finish
		}
	}
	lanes := maxProc + 1
	height := svgHeader + lanes*svgLane + 22
	x := func(t float64) float64 {
		return svgMargin + (float64(svgWidth-svgMargin-10))*t/end
	}
	shade := func(proc, level int) string {
		// Interpolate light blue (slow) to dark blue (fast).
		n := classPlat(h, proc).NumLevels()
		frac := 0.0
		if n > 1 {
			frac = float64(level) / float64(n-1)
		}
		r := int(200 - 150*frac)
		g := int(220 - 150*frac)
		return fmt.Sprintf("rgb(%d,%d,235)", r, g)
	}

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`,
		svgWidth, height)
	fmt.Fprintf(&b, `<text x="%d" y="14">%s — %d processors, %.3f ms</text>`,
		svgMargin, h.Name, lanes, end*1e3)
	sorted := append([]GanttEntry(nil), entries...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Dispatch < sorted[j].Dispatch })
	for p := 0; p < lanes; p++ {
		y := svgHeader + p*svgLane
		fmt.Fprintf(&b, `<text x="4" y="%d">P%d</text>`, y+svgLane/2+4, p)
		fmt.Fprintf(&b, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#ccc"/>`,
			svgMargin, y+svgLane-4, svgWidth-10, y+svgLane-4)
	}
	for _, e := range sorted {
		y := svgHeader + e.Proc*svgLane
		if oh := e.CompOH + e.ChangeOH; oh > 0 {
			fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.2f" height="%d" fill="#d33"/>`,
				x(e.Dispatch), y+4, maxf(x(e.Dispatch+oh)-x(e.Dispatch), 0.5), svgLane-10)
		}
		start := e.Dispatch + e.CompOH + e.ChangeOH
		w := maxf(x(e.Finish)-x(start), 0.5)
		fmt.Fprintf(&b, `<rect x="%.1f" y="%d" width="%.2f" height="%d" fill="%s" stroke="#456"><title>%s @ %s [%.3f–%.3f ms]</title></rect>`,
			x(start), y+4, w, svgLane-10, shade(e.Proc, e.Level),
			e.Name, classPlat(h, e.Proc).Levels()[e.Level], start*1e3, e.Finish*1e3)
		if w > 34 {
			fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="#123">%s</text>`,
				x(start)+2, y+svgLane/2+4, e.Name)
		}
	}
	if deadline > 0 {
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#d33" stroke-dasharray="4,3"/>`,
			x(deadline), svgHeader-6, x(deadline), height-18)
		fmt.Fprintf(&b, `<text x="%.1f" y="%d" fill="#d33">D=%.2fms</text>`,
			x(deadline)-30, height-4, deadline*1e3)
	}
	b.WriteString(`</svg>`)
	return b.String()
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
