package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call into a layer, recorded from the benchmark's side of
// the call: the program under test carries no hooks. parent is the index
// of the enclosing span (-1 for an op's root span); op groups the spans
// of one operation.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration // since the tracer's epoch
}

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so ops call it unconditionally.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<14)} }

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: time.Since(t.epoch)})
	id := len(t.spans) - 1
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].end = time.Since(t.epoch)
	t.mu.Unlock()
}

// opSpans is one op's spans: each span name's self time and the number
// of spans.
type opSpans struct {
	self  map[string]time.Duration
	spans int
}

// selfTimes returns every op's spans. A span's self time is its duration
// minus the part of its interval its children cover.
func (t *tracer) selfTimes() map[int]*opSpans {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]time.Duration{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], [2]time.Duration{s.start, s.end})
		}
	}
	out := map[int]*opSpans{}
	for i, s := range t.spans {
		o := out[s.op]
		if o == nil {
			o = &opSpans{self: map[string]time.Duration{}}
			out[s.op] = o
		}
		o.self[s.name] += s.end - s.start - covered(children[i])
		o.spans++
	}
	return out
}

// covered is the length of the union of the intervals.
func covered(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, hi time.Duration
	lo := time.Duration(-1)
	for _, x := range iv {
		switch {
		case lo < 0:
			lo, hi = x[0], x[1]
		case x[0] > hi:
			total += hi - lo
			lo, hi = x[0], x[1]
		case x[1] > hi:
			hi = x[1]
		}
	}
	if lo >= 0 {
		total += hi - lo
	}
	return total
}

// write dumps every span as a Chrome trace_event file (loadable in
// Perfetto), one lane per op.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	evs := make([]event, len(t.spans))
	for i, s := range t.spans {
		evs[i] = event{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: 1, TID: s.op, Args: map[string]int{"op": s.op, "parent": s.parent}}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// ledger accumulates per-layer samples. A mean metric is averaged over
// the ops (or inputs) that reached the layer; a ratio metric is a ratio
// of sums, never a mean of ratios. A nil *ledger (untraced) drops
// samples.
type ledger struct {
	mean  map[string]*acc
	ratio map[string]*acc
}

type acc struct{ num, den float64 }

func newLedger() *ledger { return &ledger{mean: map[string]*acc{}, ratio: map[string]*acc{}} }

func (l *ledger) add(name string, v float64) {
	if l == nil {
		return
	}
	a := l.mean[name]
	if a == nil {
		a = &acc{}
		l.mean[name] = a
	}
	a.num += v
	a.den++
}

func (l *ledger) addRatio(name string, num, den float64) {
	if l == nil {
		return
	}
	a := l.ratio[name]
	if a == nil {
		a = &acc{}
		l.ratio[name] = a
	}
	a.num += num
	a.den += den
}

// sum adds v to a metric that totals its samples.
func (l *ledger) sum(name string, v float64) {
	if l == nil {
		return
	}
	l.addRatio(name, v, 0)
	l.ratio[name].den = 1
}

// value returns a metric's value and whether any sample reached it.
func (l *ledger) value(name string) (float64, bool) {
	if a := l.mean[name]; a != nil && a.den > 0 {
		return a.num / a.den, true
	}
	if a := l.ratio[name]; a != nil && a.den > 0 {
		return a.num / a.den, true
	}
	return 0, false
}

// spanMetric maps the benchmark's span names onto per-layer self-time
// metrics.
var spanMetric = map[string]string{
	"op":               "bench.self_ms",
	"minijava.parse":   "minijava.parse_ms",
	"minijava.check":   "minijava.check_ms",
	"codegen.compile":  "codegen.ms",
	"inline.apply":     "inline.ms",
	"verifier.verify":  "verifier.ms",
	"core.summaries":   "core.summaries_ms",
	"core.analyze":     "core.analyze_ms",
	"pipeline.compile": "pipeline.compile_ms",
	"vm.new":           "vm.new_ms",
	"vm.run":           "vm.run_ms",
}

// addSelfTimes adds one op's self times, one sample per metric.
func (l *ledger) addSelfTimes(self map[string]time.Duration) {
	for name, d := range self {
		if m, ok := spanMetric[name]; ok {
			l.add(m, ms(d))
		}
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
