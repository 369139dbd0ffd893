package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// The traced run records one span per public call it makes: name,
// start, end, parent, and an id shared by every span of one observation
// or request. Spans stay in memory until the run ends, then are written
// next to the run's other build outputs. A layer's self time is its
// spans' durations minus the part their child spans cover; whatever the
// root span covers that no layer does is reported as unattributed.

// perLayer lists every per-layer metric with its unit. A traced run
// reports all of them; a layer the workload never calls reports 0.
var perLayer = []struct{ name, unit string }{
	{"http.roundtrip_us", "us"},
	{"serve.handler_us", "us"},
	{"http.overhead_us", "us"},
	{"serve.decode_us", "us"},
	{"serve.visible_lag_us", "us"},
	{"serve.backpressure_share", "ratio"},
	{"serve.heap_kb_per_tenant", "KB"},
	{"serve.goroutines_per_tenant", "count"},
	{"serve.gc_cpu_share", "ratio"},
	{"serve.create_ms", "ms"},
	{"serve.drain_ms", "ms"},
	{"core.append_us", "us"},
	{"core.live_modes_us", "us"},
	{"core.events_us", "us"},
	{"core.matrix_us", "us"},
	{"core.similarity_ms", "ms"},
	{"core.similarity_pairs_per_s", "1/s"},
	{"core.cluster_ms", "ms"},
	{"core.detect_ms", "ms"},
	{"core.events_detected", "count"},
	{"clean.interpolate_ms", "ms"},
	{"clean.coverage", "ratio"},
	{"report.render_ms", "ms"},
	{"dataset.load_ms", "ms"},
	{"dataset.mb", "MB"},
	{"snapshot.encode_ms", "ms"},
	{"snapshot.checkpoint_kb", "KB"},
	{"snapshot.restore_ms", "ms"},
	{"astopo.world_ms", "ms"},
	{"bgpsim.compute_ms", "ms"},
	{"atlas.round_ms", "ms"},
	{"dataplane.query_us", "us"},
	{"atlas.known_share", "ratio"},
	{"trace.wall_ms", "ms"},
	{"trace.unattributed_ms", "ms"},
	{"trace.obs_per_s", "1/s"},
}

// fillLayers reports 0 for every per-layer metric the workload's path
// does not reach.
func fillLayers(o *outcome) {
	for _, m := range perLayer {
		if _, ok := o.metrics[m.name]; !ok {
			o.set(m.name, m.unit, 0)
		}
	}
}

type span struct {
	Name    string `json:"name"`
	ID      int64  `json:"id"`
	Parent  int    `json:"parent"` // index into the span list; -1 for the root
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// start opens a span and returns its index.
func (t *tracer) start(name string, id int64, parent int) int {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: t.now()})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	t.spans[i].EndNS = t.now()
	return time.Duration(t.spans[i].EndNS - t.spans[i].StartNS)
}

// call times f as one span.
func (t *tracer) call(name string, id int64, parent int, f func()) time.Duration {
	i := t.start(name, id, parent)
	f()
	return t.end(i)
}

// add records a span whose duration was measured elsewhere (the stage
// spans a scenario run reports about itself), placed at the given start.
func (t *tracer) add(name string, id int64, parent int, startNS int64, d time.Duration) {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, StartNS: startNS, EndNS: startNS + int64(d)})
}

// selfTimes sums each span name's self time: duration minus the
// durations of its direct children.
func (t *tracer) selfTimes() map[string]time.Duration {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - child[i])
	}
	return out
}

// summary reports trace.wall_ms and trace.unattributed_ms for the root
// span (index root) and renders the self-time table: each layer's self
// time and share beside the root's end-to-end time, with the
// unattributed remainder last.
func (t *tracer) summary(root int, obs int, layers map[string]metric) []string {
	self := t.selfTimes()
	rootName := t.spans[root].Name
	wall := time.Duration(t.spans[root].EndNS - t.spans[root].StartNS)
	unattributed := self[rootName]
	layers["trace.wall_ms"] = metric{float64(wall) / 1e6, "ms"}
	layers["trace.unattributed_ms"] = metric{float64(unattributed) / 1e6, "ms"}
	names := make([]string, 0, len(self))
	for n := range self {
		if n != rootName {
			names = append(names, n)
		}
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	lines := []string{
		fmt.Sprintf("trace %s: end-to-end %.1f ms over %d observations (%.1f us/obs), %d spans",
			rootName, float64(wall)/1e6, obs, float64(wall)/1e3/float64(max(obs, 1)), len(t.spans)),
		fmt.Sprintf("  %-30s %12s %10s %7s", "layer", "self ms", "us/obs", "share"),
	}
	row := func(name string, d time.Duration) string {
		return fmt.Sprintf("  %-30s %12.2f %10.2f %6.1f%%", name, float64(d)/1e6,
			float64(d)/1e3/float64(max(obs, 1)), 100*float64(d)/float64(max(wall, 1)))
	}
	for _, n := range names {
		lines = append(lines, row(n, self[n]))
	}
	return append(lines, row("(unattributed)", unattributed))
}

// write dumps the spans as JSON.
func (t *tracer) write(path string) error {
	raw, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// msOf is a duration in milliseconds, usOf in microseconds.
func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// medianDur is the median of a list of durations.
func medianDur(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(median(xs))
}
