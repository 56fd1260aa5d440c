package obs

import (
	"io"
	"strconv"
	"strings"
)

// WriteProm renders a gathered snapshot in the Prometheus text exposition
// format (version 0.0.4). Registered names may carry a fixed label set
// inline (`prism_cmds_total{op="get"}`); series sharing a family (the name
// with labels stripped) get one # HELP/# TYPE header, which sorted gathering
// keeps adjacent. Histograms emit cumulative `le` buckets for the non-empty
// log buckets only (the full 1024-bucket geometry would bloat every scrape),
// plus the conventional +Inf, _sum, and _count series; duration-unit
// histograms convert nanosecond observations to base-unit seconds.
func WriteProm(w io.Writer, g *Gathered) error {
	var b strings.Builder
	seen := map[string]bool{}
	header := func(name, help, typ string) {
		fam := familyOf(name)
		if seen[fam] {
			return
		}
		seen[fam] = true
		if help != "" {
			b.WriteString("# HELP ")
			b.WriteString(fam)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(fam)
		b.WriteByte(' ')
		b.WriteString(typ)
		b.WriteByte('\n')
	}

	for _, p := range g.Points {
		typ := "counter"
		if p.IsGauge {
			typ = "gauge"
		}
		header(p.Name, p.Help, typ)
		b.WriteString(p.Name)
		b.WriteByte(' ')
		b.WriteString(formatFloat(p.Value))
		b.WriteByte('\n')
	}

	for _, hp := range g.Hists {
		header(hp.Name, hp.Help, "histogram")
		count := hp.Hist.Count()
		sum := float64(hp.Hist.Sum()) / hp.Unit.base()
		for _, bc := range hp.Hist.CumulativeBuckets() {
			bound := float64(bc.Bound) / hp.Unit.base()
			b.WriteString(withLabel(hp.Name, "_bucket", `le="`+formatFloat(bound)+`"`))
			b.WriteByte(' ')
			b.WriteString(strconv.FormatInt(bc.Cum, 10))
			b.WriteByte('\n')
		}
		b.WriteString(withLabel(hp.Name, "_bucket", `le="+Inf"`))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(count, 10))
		b.WriteByte('\n')
		b.WriteString(suffixed(hp.Name, "_sum"))
		b.WriteByte(' ')
		b.WriteString(formatFloat(sum))
		b.WriteByte('\n')
		b.WriteString(suffixed(hp.Name, "_count"))
		b.WriteByte(' ')
		b.WriteString(strconv.FormatInt(count, 10))
		b.WriteByte('\n')
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// familyOf strips an inline label set: `name{...}` → `name`.
func familyOf(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// suffixed appends a family suffix before any inline label set:
// `name{op="get"}` + `_sum` → `name_sum{op="get"}`.
func suffixed(name, suffix string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i] + suffix + name[i:]
	}
	return name + suffix
}

// withLabel is suffixed plus one more label spliced into the label set.
func withLabel(name, suffix, label string) string {
	s := suffixed(name, suffix)
	if strings.HasSuffix(s, "}") {
		return s[:len(s)-1] + "," + label + "}"
	}
	return s + "{" + label + "}"
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
