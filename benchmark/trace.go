package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"time"
)

// A span is one timed interval recorded by the harness around its own call
// into a layer. Times are nanoseconds since the trace began. Spans of one
// pipelined batch share a request id; parent is the index of the enclosing
// span in the same trace, or -1.
type span struct {
	name       string
	start, end int64
	parent     int32
	req        int32
}

// spanLog is one goroutine's span buffer: appended to without locks, kept
// in memory, merged and written out when the run ends.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog(t0 time.Time, capacity int) *spanLog {
	return &spanLog{t0: t0, spans: make([]span, 0, capacity)}
}

func (l *spanLog) now() int64 { return int64(time.Since(l.t0)) }

// add records a finished span and returns its index for use as a parent.
func (l *spanLog) add(name string, start, end int64, parent, req int32) int32 {
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, req: req})
	return int32(len(l.spans) - 1)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its direct children cover (overlapping children are not counted
// twice).
func selfTimes(spans []span) []int64 {
	children := make(map[int32][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
		kids := children[int32(i)]
		if len(kids) == 0 {
			continue
		}
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].start < spans[kids[b]].start })
		covered, edge := int64(0), s.start
		for _, k := range kids {
			lo, hi := spans[k].start, spans[k].end
			if lo < edge {
				lo = edge
			}
			if hi > s.end {
				hi = s.end
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[i] -= covered
	}
	return self
}

// spanSummary is the per-name aggregate a trace file leads with.
type spanSummary struct {
	count         int64
	total, selfNs int64
}

func summarize(spans []span) map[string]spanSummary {
	self := selfTimes(spans)
	out := map[string]spanSummary{}
	for i, s := range spans {
		a := out[s.name]
		a.count++
		a.total += s.end - s.start
		a.selfNs += self[i]
		out[s.name] = a
	}
	return out
}

// meanNs is the mean duration of the spans called name, 0 when there are
// none.
func meanNs(sum map[string]spanSummary, name string) float64 {
	a := sum[name]
	if a.count == 0 {
		return 0
	}
	return float64(a.total) / float64(a.count)
}

// mergeLogs concatenates per-goroutine logs into one trace, rebasing parent
// indices.
func mergeLogs(logs ...*spanLog) []span {
	var all []span
	for _, l := range logs {
		base := int32(len(all))
		for _, s := range l.spans {
			if s.parent >= 0 {
				s.parent += base
			}
			all = append(all, s)
		}
	}
	return all
}

// writeTrace writes the spans as JSON: a name table, a per-name summary,
// and one [name, start_ns, end_ns, parent, request] row per span.
func writeTrace(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	ids := map[string]int{}
	var names []string
	for _, s := range spans {
		if _, ok := ids[s.name]; !ok {
			ids[s.name] = len(names)
			names = append(names, s.name)
		}
	}
	fmt.Fprintf(w, "{\"workload\":%q,\"seed\":%d,\"unit\":\"ns\",\"names\":[", workload, seed)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "%q", n)
	}
	w.WriteString("],\n\"summary\":{")
	sum := summarize(spans)
	for i, n := range names {
		if i > 0 {
			w.WriteByte(',')
		}
		a := sum[n]
		fmt.Fprintf(w, "\n%q:{\"count\":%d,\"total_ns\":%d,\"self_ns\":%d}", n, a.count, a.total, a.selfNs)
	}
	w.WriteString("},\n\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\n\"spans\":[")
	for i, s := range spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", ids[s.name], s.start, s.end, s.parent, s.req)
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
