package server

import (
	"fmt"
	"strings"
	"time"

	"github.com/prismdb/prismdb/internal/core"
	"github.com/prismdb/prismdb/internal/obs"
)

// infoSections is INFO's section order. server and ops print serverSeries;
// engine, writes, persistence and tiers print core.Series; health, latency
// and events have renderers of their own.
var infoSections = []string{"server", "health", "ops", "latency", "engine", "writes", "persistence", "events", "tiers"}

// serverSeries declares the server's own numbers once: INFO's server and ops
// sections and the /metrics collector New registers both loop over it.
var serverSeries = func() []obs.Series[*Server] {
	rows := []obs.Series[*Server]{
		{Section: "server", Key: "uptime_seconds", Name: "prism_server_uptime_seconds", Gauge: true,
			Help: "Seconds since the server started.", Unit: obs.UnitSeconds,
			Read: func(s *Server) float64 { return float64(time.Since(s.start)) }},
		{Section: "server", Key: "connections_received", Name: "prism_server_connections_total",
			Help: "Client connections accepted.",
			Read: func(s *Server) float64 { return float64(s.connsTotal.Load()) }},
		{Section: "server", Key: "connections_current", Name: "prism_server_connections_live", Gauge: true,
			Help: "Client connections currently open.",
			Read: func(s *Server) float64 { return float64(s.connsLive.Load()) }},
		{Section: "server", Key: "connections_rejected", Name: "prism_server_connections_rejected_total",
			Help: "Connections refused at the max-conns cap.",
			Read: func(s *Server) float64 { return float64(s.connRejects.Load()) }},
	}
	for k := opKind(0); k < opKinds; k++ {
		rows = append(rows, obs.Series[*Server]{Section: "ops", Key: "cmd_" + opNames[k],
			Name: `prism_server_cmds_total{op="` + opNames[k] + `"}`, Help: "Commands executed, by op.",
			Read: func(s *Server) float64 { return float64(s.cmdCounts[k].Load()) }})
	}
	return append(rows,
		obs.Series[*Server]{Section: "ops", Key: "cmd_total", // the sum of prism_server_cmds_total
			Read: func(s *Server) float64 {
				var n int64
				for k := range s.cmdCounts {
					n += s.cmdCounts[k].Load()
				}
				return float64(n)
			}},
		obs.Series[*Server]{Section: "ops", Key: "errors", Name: "prism_server_errors_total",
			Help: "Commands answered with a RESP error.",
			Read: func(s *Server) float64 { return float64(s.errCount.Load()) }})
}()

// info renders the INFO reply: key:value lines grouped into # sections,
// Redis-style, so existing tooling can parse it. An empty section selects
// everything; otherwise only the named section (case-insensitive) is
// rendered. Every number is live — the latency section reads the same
// lock-free histograms the connections fold their ops into before every
// reply flush (and /metrics exposes), so open connections are included up
// to their last reply, not just closed ones — and the engine sections share
// one sweep of the engine per request.
func (s *Server) info(section string) string {
	section = strings.ToLower(section)
	var b strings.Builder
	var smp *core.Sample
	for _, name := range infoSections {
		if section != "" && section != name {
			continue
		}
		switch name {
		case "server", "ops":
			obs.WriteInfo(&b, name, serverSeries, s)

		case "health":
			// Present only for engines that track failure-domain state (a
			// durable core.DB behind the facade); a fake without the method
			// renders nothing rather than guessing.
			if s.heng == nil {
				continue
			}
			h := s.heng.Health()
			ro := 0
			if h.ReadOnly {
				ro = 1
			}
			fmt.Fprintf(&b, "# health\r\nhealth_state:%s\r\nread_only:%d\r\nhealth_cause:%s\r\n", h.State, ro, h.Cause)
			if !h.Since.IsZero() {
				fmt.Fprintf(&b, "degraded_seconds:%.1f\r\n", time.Since(h.Since).Seconds())
			}
			b.WriteString("\r\n")

		case "latency":
			b.WriteString("# latency\r\n")
			for k := opKind(0); k < opKinds-1; k++ { // opOther has no latencies
				wall, virt := s.opWall[k], s.opVirt[k]
				if wall.Count() == 0 {
					continue
				}
				fmt.Fprintf(&b, "%s_count:%d\r\n", opNames[k], wall.Count())
				fmt.Fprintf(&b, "%s_wall_p50_us:%.1f\r\n", opNames[k], us(wall.Quantile(0.5)))
				fmt.Fprintf(&b, "%s_wall_p99_us:%.1f\r\n", opNames[k], us(wall.Quantile(0.99)))
				fmt.Fprintf(&b, "%s_virt_p50_us:%.1f\r\n", opNames[k], us(virt.Quantile(0.5)))
				fmt.Fprintf(&b, "%s_virt_p99_us:%.1f\r\n", opNames[k], us(virt.Quantile(0.99)))
			}
			b.WriteString("\r\n")

		case "events":
			// The structured event log: compaction rounds, checkpoints, WAL
			// rotations, recovery outcomes, write stalls — each a single JSON
			// line. A full INFO shows the most recent few; INFO events shows
			// the whole retained ring (Tail(0)), oldest first.
			n := 8
			if section == name {
				n = 0
			}
			fmt.Fprintf(&b, "# events\r\nevents_total:%d\r\n", s.events.Total())
			for _, line := range s.events.Tail(n) {
				fmt.Fprintf(&b, "event:%s\r\n", line)
			}
			b.WriteString("\r\n")

		default: // engine, writes, persistence, tiers
			if smp == nil {
				smp = s.sample()
			}
			// The persistence section is present only when the engine is
			// durable (core.Options.DataDir).
			if name != "persistence" || smp.Persistence.Durable {
				obs.WriteInfo(&b, name, core.Series, *smp)
			}
		}
	}
	return b.String()
}

// sample sweeps the engine once: its Stats, its virtual clock, and the
// persistence counters of an engine that has them.
func (s *Server) sample() *core.Sample {
	smp := &core.Sample{Stats: s.eng.Stats(), Elapsed: s.eng.Elapsed()}
	if pe, ok := s.eng.(interface{ PersistenceStats() core.PersistenceStats }); ok {
		smp.Persistence = pe.PersistenceStats()
	}
	return smp
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
