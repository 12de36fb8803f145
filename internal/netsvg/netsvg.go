// Package netsvg renders network topologies as SVG diagrams: nodes placed
// by a deterministic force-directed layout, links drawn with width and
// color scaled by utilization. Used by cmd/mdrtopo and handy for inspecting
// what a routing scheme actually did to a network.
package netsvg

import (
	"fmt"
	"math"
	"strings"

	"minroute/internal/graph"
	"minroute/internal/rng"
)

// Options tunes the rendering. The zero value picks sensible defaults.
type Options struct {
	// Width and Height of the SVG canvas in pixels (default 800x600).
	Width, Height int
	// Seed makes the layout reproducible (default 1).
	Seed uint64
	// Iterations of the force-directed layout (default 300).
	Iterations int
	// Utilization, when non-nil, colors each directed link; keys are
	// {from, to}. Values are clamped to [0, 1.2].
	Utilization map[[2]graph.NodeID]float64
}

func (o *Options) setDefaults() {
	if o.Width <= 0 {
		o.Width = 800
	}
	if o.Height <= 0 {
		o.Height = 600
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Iterations <= 0 {
		o.Iterations = 300
	}
}

// Render returns a standalone SVG document for g.
func Render(g *graph.Graph, opt Options) string {
	opt.setDefaults()
	pos := Layout(g, opt.Seed, opt.Iterations)

	// Scale positions into the canvas with a margin.
	const margin = 50
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	//lint:maporder-ok min/max accumulation is exact and commutative
	for _, p := range pos {
		minX, maxX = math.Min(minX, p[0]), math.Max(maxX, p[0])
		minY, maxY = math.Min(minY, p[1]), math.Max(maxY, p[1])
	}
	spanX, spanY := maxX-minX, maxY-minY
	if spanX == 0 {
		spanX = 1
	}
	if spanY == 0 {
		spanY = 1
	}
	sx := func(x float64) float64 { return margin + (x-minX)/spanX*float64(opt.Width-2*margin) }
	sy := func(y float64) float64 { return margin + (y-minY)/spanY*float64(opt.Height-2*margin) }

	var b strings.Builder
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d" font-family="sans-serif">`+"\n",
		opt.Width, opt.Height, opt.Width, opt.Height)
	fmt.Fprintf(&b, `<rect width="%d" height="%d" fill="white"/>`+"\n", opt.Width, opt.Height)

	// Links (draw duplex pairs once unless utilizations differ, in which
	// case two slightly offset lines are drawn).
	drawn := make(map[[2]graph.NodeID]bool)
	for _, l := range g.Links() {
		key := [2]graph.NodeID{l.From, l.To}
		rev := [2]graph.NodeID{l.To, l.From}
		if drawn[rev] && opt.Utilization == nil {
			continue
		}
		drawn[key] = true
		x1, y1 := sx(pos[l.From][0]), sy(pos[l.From][1])
		x2, y2 := sx(pos[l.To][0]), sy(pos[l.To][1])
		u := 0.0
		if opt.Utilization != nil {
			u = math.Min(math.Max(opt.Utilization[key], 0), 1.2)
			// Offset the two directions perpendicular to the link.
			dx, dy := x2-x1, y2-y1
			norm := math.Hypot(dx, dy)
			if norm > 0 {
				ox, oy := -dy/norm*2.5, dx/norm*2.5
				x1, y1, x2, y2 = x1+ox, y1+oy, x2+ox, y2+oy
			}
		}
		fmt.Fprintf(&b, `<line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="%s" stroke-width="%.1f"><title>%s → %s%s</title></line>`+"\n",
			x1, y1, x2, y2, utilColor(u), 1.5+3*u,
			esc(g.Name(l.From)), esc(g.Name(l.To)), utilLabel(opt.Utilization, key))
	}

	// Nodes.
	for _, id := range g.Nodes() {
		x, y := sx(pos[id][0]), sy(pos[id][1])
		fmt.Fprintf(&b, `<circle cx="%.1f" cy="%.1f" r="10" fill="#4878d0" stroke="#1f3f7a"/>`+"\n", x, y)
		fmt.Fprintf(&b, `<text x="%.1f" y="%.1f" font-size="11" text-anchor="middle" fill="#111">%s</text>`+"\n",
			x, y-14, esc(g.Name(id)))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func utilLabel(util map[[2]graph.NodeID]float64, key [2]graph.NodeID) string {
	if util == nil {
		return ""
	}
	return fmt.Sprintf(" (util %.2f)", util[key])
}

// utilColor maps utilization to a grey→orange→red ramp.
func utilColor(u float64) string {
	switch {
	case u <= 0.01:
		return "#bbb"
	case u < 0.5:
		return "#7aa644"
	case u < 0.8:
		return "#e8a33d"
	default:
		return "#d64545"
	}
}

// Layout computes node positions with a deterministic Fruchterman-Reingold
// force-directed layout on the unit square.
func Layout(g *graph.Graph, seed uint64, iterations int) map[graph.NodeID][2]float64 {
	n := g.NumNodes()
	pos := make(map[graph.NodeID][2]float64, n)
	r := rng.New(seed)
	for _, id := range g.Nodes() {
		pos[id] = [2]float64{r.Float64(), r.Float64()}
	}
	if n < 2 {
		return pos
	}
	k := math.Sqrt(1.0 / float64(n)) // ideal edge length
	temp := 0.1
	cool := temp / float64(iterations+1)

	nodes := g.Nodes()
	disp := make(map[graph.NodeID][2]float64, n)
	for it := 0; it < iterations; it++ {
		for _, id := range nodes {
			disp[id] = [2]float64{}
		}
		// Repulsion between all pairs.
		for i := 0; i < len(nodes); i++ {
			for j := i + 1; j < len(nodes); j++ {
				a, c := nodes[i], nodes[j]
				dx := pos[a][0] - pos[c][0]
				dy := pos[a][1] - pos[c][1]
				d := math.Hypot(dx, dy)
				if d < 1e-9 {
					dx, dy, d = 1e-4, 1e-4, 1.5e-4
				}
				f := k * k / d
				disp[a] = [2]float64{disp[a][0] + dx/d*f, disp[a][1] + dy/d*f}
				disp[c] = [2]float64{disp[c][0] - dx/d*f, disp[c][1] - dy/d*f}
			}
		}
		// Attraction along links (each duplex pair pulls twice, harmless).
		for _, l := range g.Links() {
			dx := pos[l.From][0] - pos[l.To][0]
			dy := pos[l.From][1] - pos[l.To][1]
			d := math.Hypot(dx, dy)
			if d < 1e-9 {
				continue
			}
			f := d * d / k
			disp[l.From] = [2]float64{disp[l.From][0] - dx/d*f, disp[l.From][1] - dy/d*f}
			disp[l.To] = [2]float64{disp[l.To][0] + dx/d*f, disp[l.To][1] + dy/d*f}
		}
		// Apply displacements, limited by temperature.
		for _, id := range nodes {
			dx, dy := disp[id][0], disp[id][1]
			d := math.Hypot(dx, dy)
			if d > 0 {
				step := math.Min(d, temp)
				pos[id] = [2]float64{pos[id][0] + dx/d*step, pos[id][1] + dy/d*step}
			}
		}
		temp -= cool
		if temp < 1e-4 {
			temp = 1e-4
		}
	}
	return pos
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
