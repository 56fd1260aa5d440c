package obs

import "strings"

// Series declares one number once: the INFO section and key it prints
// under, the /metrics series it is exported as, its unit (which picks both
// renderings), and how to read it off a stats sweep of type S. A row with
// no Name is a figure INFO derives from other series — a sum, a ratio, a
// histogram quantile — and /metrics leaves to the scraper.
type Series[S any] struct {
	Section, Key string
	Name, Help   string
	Unit         Unit
	Gauge        bool
	Read         func(S) float64
}

// Point is the row's /metrics sample off s.
func (r Series[S]) Point(s S) Point {
	return Point{Name: r.Name, Help: r.Help, Value: r.Read(s) / r.Unit.base(), IsGauge: r.Gauge}
}

// Export appends the sample of every row that names a series.
func Export[S any](g *Gathered, rows []Series[S], s S) {
	for _, r := range rows {
		if r.Name != "" {
			g.Points = append(g.Points, r.Point(s))
		}
	}
}

// WriteInfo renders one INFO section off s: its header, one key:value line
// per row declared under it in table order, and a blank line.
func WriteInfo[S any](b *strings.Builder, section string, rows []Series[S], s S) {
	b.WriteString("# " + section + "\r\n")
	for _, r := range rows {
		if r.Section == section {
			b.WriteString(r.Key + ":" + r.Unit.format(r.Read(s)) + "\r\n")
		}
	}
	b.WriteString("\r\n")
}
