// Command perfbench is Fenrir's end-to-end benchmark. It drives four
// workloads and prints, as the last line of standard output, one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -root <checkout> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench -root <checkout> --describe
//
// Workloads:
//
//	ingest-fleet         many small tenants, write-only, over HTTP to a
//	                     fresh `fenrir -serve` process (runnable by hand;
//	                     not in BENCHMARK.json, see meta.json)
//	ingest-deep          few wide tenants warm-restored from deep
//	                     checkpoints, appended further with reads beside
//	                     the writes
//	analyze-archive      dataset.Load of a CSV archive, Analyze, Report
//	scenario-validation  RunValidation (Table 4) on the simulated Internet
//
// With --trace 0 the run measures the end-to-end metrics with no
// tracing. With --trace 1 it is a separate, in-process replay of the same
// generated inputs that times the public call into each layer and prints
// the per-layer metrics plus a self-time table.
//
// perfbench -worker is the batch worker process the driver starts; it
// is not meant to be run by hand.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed meta.json
var metaJSON []byte

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// check is one correctness gate; a failed check counts as failed
// operations (Failed of them) in the result.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail"`
	Failed int64  `json:"failed"`
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted int64
	failed    int64 // non-2xx other than 429; failed checks add their own
	checks    []check
	metrics   map[string]metric
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = make(map[string]metric)
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) gate(name string, ok bool, failed int64, format string, args ...any) {
	o.checks = append(o.checks, newCheck(name, ok, failed, format, args...))
}

// newCheck builds a gate result; a failed gate counts at least one
// failed operation.
func newCheck(name string, ok bool, failed int64, format string, args ...any) check {
	if ok {
		failed = 0
	} else if failed < 1 {
		failed = 1
	}
	return check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...), Failed: failed}
}

// endToEnd and perLayer list the metrics each kind of run must report,
// with their units; BENCHMARK.json mirrors them.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"obs_per_s", "1/s"},
	{"cpu_us_per_obs", "us"},
	{"rss_mb", "MB"},
	{"latency_p50_ms", "ms"},
	{"query_p50_ms", "ms"},
}

// config is one run's settings.
type config struct {
	root     string // checkout root
	work     string // per-run scratch directory under .bench_build
	workload string
	seed     uint64
	seconds  int
	trace    bool
}

// spansPath is where a traced run writes its spans; it outlives the
// run's scratch directory.
func (c config) spansPath() string {
	return filepath.Join(c.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

type workloadFunc func(cfg config) (*outcome, error)

var workloads = map[string]struct{ run, traced workloadFunc }{
	"ingest-fleet":        {runFleet, traceFleet},
	"ingest-deep":         {runDeep, traceDeep},
	"analyze-archive":     {runArchive, traceArchive},
	"scenario-validation": {runScenario, traceScenario},
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-worker" {
		os.Exit(workerMain(os.Args[2:]))
	}
	var (
		cfg      config
		traceArg int
		describe bool
	)
	flag.StringVar(&cfg.root, "root", ".", "checkout root (holds go.mod of the fenrir module)")
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: ingest-fleet ingest-deep analyze-archive scenario-validation")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the generated inputs are a function of it")
	flag.IntVar(&cfg.seconds, "seconds", 10, "nominal measured seconds; sizes the fixed amount of work")
	flag.IntVar(&traceArg, "trace", 0, "1 runs the traced in-process replay and reports per-layer metrics")
	flag.BoolVar(&describe, "describe", false, "print every metric, the layer map and the held-out seed, then exit")
	flag.Parse()
	if describe {
		os.Stdout.Write(metaJSON)
		return
	}
	w, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q or bad --seconds\n", cfg.workload)
		os.Exit(2)
	}
	cfg.trace = traceArg != 0
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		fatal(err)
	}
	cfg.root = root
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		fatal(fmt.Errorf("no fenrir module at %s: %w", root, err))
	}
	cfg.work, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(cfg.work)
	if err := os.MkdirAll(filepath.Dir(cfg.spansPath()), 0o755); err != nil {
		fatal(err)
	}

	host := readHost(cfg.seed, cfg.workload, cfg.seconds, cfg.trace)
	hj, _ := json.Marshal(host)
	fmt.Printf("# host %s\n", hj)

	run, want := w.run, endToEnd
	if cfg.trace {
		run, want = w.traced, perLayer
	}
	cpu0 := readHostCPU()
	out, err := run(cfg)
	if err != nil {
		os.RemoveAll(cfg.work)
		fatal(err)
	}
	for _, m := range want {
		if got, ok := out.metrics[m.name]; !ok || got.Unit != m.unit {
			os.RemoveAll(cfg.work)
			fatal(fmt.Errorf("workload %s reported no %s in %s", cfg.workload, m.name, m.unit))
		}
	}
	fmt.Printf("# info hypervisor steal %.1f%% of the CPU time the run wanted\n", 100*readHostCPU().stealSince(cpu0))
	res := result{Correct: true, Attempted: out.attempted, Failed: out.failed, Metrics: out.metrics}
	for _, c := range out.checks {
		status := "ok"
		if !c.OK {
			status = "FAIL"
			res.Correct = false
			res.Failed += c.Failed
		}
		fmt.Printf("# check %-28s %-4s %s\n", c.Name, status, c.Detail)
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	if res.Attempted < 1 {
		res.Attempted = 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("# metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		os.RemoveAll(cfg.work)
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "perfbench: %v\n", strings.TrimSpace(err.Error()))
	os.Exit(1)
}
