package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/vnpu-sim/vnpu/internal/obs/slo"
)

// span is one harness-side interval around a call into the program:
// name, start, end, the span that caused it and the job it belongs to.
// Spans are recorded only in traced runs, from the benchmark's own files;
// the program's own lifecycle trace is read through Attribution().
type span struct {
	name       string
	job        int64
	parent     int32 // index into the log, -1 for a root
	start, end int64 // ns since the log's epoch
}

// spanLog keeps spans in memory until the benchmark ends. A nil log
// records nothing, which is how untraced runs pay nothing for it.
type spanLog struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newSpanLog(capacity int) *spanLog {
	return &spanLog{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// add records one finished span and returns its index, for children to
// name as their parent.
func (l *spanLog) add(name string, job int64, parent int32, start, end time.Time) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	l.spans = append(l.spans, span{
		name: name, job: job, parent: parent,
		start: start.Sub(l.epoch).Nanoseconds(), end: end.Sub(l.epoch).Nanoseconds(),
	})
	i := int32(len(l.spans) - 1)
	l.mu.Unlock()
	return i
}

// reserve appends a root span whose end is filled in later (a root
// closes after its children), returning its index.
func (l *spanLog) reserve(name string, job int64, start time.Time) int32 {
	return l.add(name, job, -1, start, start)
}

func (l *spanLog) finish(i int32, end time.Time) {
	if l == nil || i < 0 {
		return
	}
	l.mu.Lock()
	l.spans[i].end = end.Sub(l.epoch).Nanoseconds()
	l.mu.Unlock()
}

// selfTime is a span name's mean duration and mean self time: its
// duration minus the part its child spans cover.
type selfTime struct {
	name           string
	count          int
	meanUS, selfUS float64
}

// selfTimes folds the log per span name. Children of one parent never
// overlap here (Submit then Wait; one System call after another), so
// covered time is the plain sum of child durations.
func (l *spanLog) selfTimes() []selfTime {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	covered := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	type agg struct {
		n         int
		dur, self int64
	}
	by := map[string]*agg{}
	for i, s := range l.spans {
		a := by[s.name]
		if a == nil {
			a = &agg{}
			by[s.name] = a
		}
		a.n++
		a.dur += s.end - s.start
		a.self += s.end - s.start - covered[i]
	}
	out := make([]selfTime, 0, len(by))
	for name, a := range by {
		out = append(out, selfTime{
			name: name, count: a.n,
			meanUS: float64(a.dur) / float64(a.n) / 1e3,
			selfUS: float64(a.self) / float64(a.n) / 1e3,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// writeChrome writes the spans of every log as Chrome trace_event JSON
// (one process per workload, one thread lane per span depth), loadable in
// Perfetto next to the program's own /trace.json.
func writeChrome(path string, logs map[string]*spanLog) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	type ev struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	names := make([]string, 0, len(logs))
	for name := range logs {
		names = append(names, name)
	}
	sort.Strings(names)
	if _, err := w.WriteString(`{"traceEvents":[`); err != nil {
		return err
	}
	first := true
	emit := func(e ev) error {
		b, err := json.Marshal(e)
		if err != nil {
			return err
		}
		if !first {
			if err := w.WriteByte(','); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(b)
		return err
	}
	for pid, name := range names {
		l := logs[name]
		if l == nil {
			continue
		}
		if err := emit(ev{Name: "process_name", Ph: "M", Pid: pid, Args: map[string]any{"name": name}}); err != nil {
			return err
		}
		for i, s := range l.spans {
			tid := 0
			if s.parent >= 0 {
				tid = 1
			}
			e := ev{
				Name: s.name, Ph: "X", Pid: pid, Tid: tid,
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Args: map[string]any{"job": s.job, "span": i, "parent": s.parent},
			}
			if err := emit(e); err != nil {
				return err
			}
		}
	}
	if _, err := w.WriteString("]}\n"); err != nil {
		return err
	}
	return w.Flush()
}

// stageMetric maps the critical-path analyzer's segment names onto the
// stage.* metric names.
var stageMetric = map[string]string{
	"admission":    "stage.admission_us",
	"queue-wait":   "stage.queue_wait_us",
	"session-wait": "stage.session_wait_us",
	"batching":     "stage.batching_us",
	"map-park":     "stage.map_park_us",
	"chip-wait":    "stage.chip_wait_us",
	"execution":    "stage.execution_us",
	"forward":      "stage.forward_us",
}

// setStages reports the attribution as mean microseconds per traced job
// and segment.
func setStages(m *metricSet, a slo.Attribution) error {
	if a.Jobs == 0 {
		return fmt.Errorf("attribution covers no finished job")
	}
	for _, seg := range a.Segments {
		name, ok := stageMetric[seg.Segment]
		if !ok {
			continue // "other": an edge the analyzer does not name
		}
		m.set(name, float64(seg.TotalUS)/float64(a.Jobs), int(seg.Count))
	}
	return nil
}
